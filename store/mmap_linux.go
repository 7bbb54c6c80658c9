//go:build linux

package store

// Memory-mapped journal segments. Appending to the journal through a
// MAP_SHARED mapping hands the bytes to the kernel with a memcpy instead
// of a write(2): the durability guarantee is identical — dirty pages in
// the page cache survive a process crash exactly like write()-ed bytes,
// and a machine crash loses whatever the sync policy had not yet flushed —
// but the hot path costs ~100ns instead of a syscall. msync replaces
// fsync; fallocate backs every mapped byte with real blocks so a full disk
// surfaces as a clean grow-time error instead of a SIGBUS mid-copy.
//
// This path is kept beside write() (every other platform's path, and the
// fallback when a segment cannot be mapped) because it wins end to end:
// svtperf on a 2-vCPU VM, 6 alternating 10 s pairs per workload, put
// interactive-wire at 151k q/s and p99 3.2 ms here against 113k and 4.5 ms
// through write() (every pair); p50 rose 9-11% without it on batch-http
// and churn-durable. write() held about 2.5 MiB less RSS.

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// mmapSupported reports that this platform builds the mmap fast path; the
// WAL silently falls back to write() journaling where it is false or where
// mapping fails at runtime (e.g. a filesystem without fallocate).
const mmapSupported = true

// mmapChunk is the granularity journal segments are sized (and grown) by.
// Variable so tests can force growth cheaply.
var mmapChunk = int64(4 << 20)

// mmapRegion is one live file mapping; zero value means inactive.
type mmapRegion struct {
	buf []byte
}

func (r *mmapRegion) active() bool { return r.buf != nil }

// mapSegment sizes f to at least size bytes (rounded up to the chunk,
// block-backed via fallocate) and maps it shared read-write.
func mapSegment(f *os.File, size int64) (mmapRegion, error) {
	want := ((size + mmapChunk - 1) / mmapChunk) * mmapChunk
	if want == 0 {
		want = mmapChunk
	}
	if err := syscall.Fallocate(int(f.Fd()), 0, 0, want); err != nil {
		return mmapRegion{}, fmt.Errorf("store: reserving journal blocks: %w", err)
	}
	buf, err := syscall.Mmap(int(f.Fd()), 0, int(want), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return mmapRegion{}, fmt.Errorf("store: mapping journal: %w", err)
	}
	return mmapRegion{buf: buf}, nil
}

// sync flushes the mapping's dirty pages to disk (the msync analog of
// fsync on the write() path).
func (r *mmapRegion) sync() error {
	if !r.active() {
		return nil
	}
	return msync(r.buf)
}

// msync makes a mapping's dirty pages durable. Variable so tests can hold
// a sync open.
var msync = func(buf []byte) error {
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&buf[0])), uintptr(len(buf)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return fmt.Errorf("store: msync: %w", errno)
	}
	return nil
}

// unmap releases the mapping; the region becomes inactive.
func (r *mmapRegion) unmap() error {
	if !r.active() {
		return nil
	}
	buf := r.buf
	r.buf = nil
	if err := syscall.Munmap(buf); err != nil {
		return fmt.Errorf("store: munmap: %w", err)
	}
	return nil
}
