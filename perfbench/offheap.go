package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// arena hands out memory outside the Go heap (anonymous mmap). The
// benchmark keeps its encoded inputs and per-record stamps there, so their
// hundreds of megabytes neither pace the program's garbage collector nor
// show in its heap: the program collects as often as it would in pfmd.
// Only pointer-free data may live in an arena.
type arena struct {
	regions map[*byte][]byte
}

func newArena() *arena { return &arena{regions: make(map[*byte][]byte)} }

func (a *arena) bytes(n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap %d bytes: %w", n, err)
	}
	a.regions[&b[0]] = b
	return b, nil
}

// release unmaps one region returned by bytes.
func (a *arena) release(b []byte) {
	if len(b) == 0 {
		return
	}
	if r, ok := a.regions[&b[0]]; ok {
		delete(a.regions, &b[0])
		_ = syscall.Munmap(r)
	}
}

// free unmaps every region; nothing from the arena may be used after.
func (a *arena) free() {
	for k, r := range a.regions {
		_ = syscall.Munmap(r)
		delete(a.regions, k)
	}
}

// arenaSlice returns a zeroed n-element slice of a pointer-free type T.
func arenaSlice[T any](a *arena, n int) ([]T, error) {
	var zero T
	b, err := a.bytes(n * int(unsafe.Sizeof(zero)))
	if err != nil || b == nil {
		return nil, err
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// arenaBuffer is an append-only byte buffer in an arena that doubles its
// mapping when full.
type arenaBuffer struct {
	a   *arena
	buf []byte
	n   int
	err error
}

func (w *arenaBuffer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.n+len(p) > len(w.buf) {
		nb, err := w.a.bytes(max(2*len(w.buf), w.n+len(p), 1<<20))
		if err != nil {
			w.err = err
			return 0, err
		}
		copy(nb, w.buf[:w.n])
		w.a.release(w.buf)
		w.buf = nb
	}
	copy(w.buf[w.n:], p)
	w.n += len(p)
	return len(p), nil
}

func (w *arenaBuffer) WriteString(s string) (int, error) {
	return w.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
}

func (w *arenaBuffer) Len() int      { return w.n }
func (w *arenaBuffer) Bytes() []byte { return w.buf[:w.n] }
