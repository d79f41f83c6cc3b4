package main

import (
	"math/rand"
	"syscall"
	"unsafe"
)

// calTable is the kernel's hash table: open addressing with linear probing
// at load factor 1/2. Its memory, like the chase's, is mapped outside the Go
// heap, so that the kernel neither counts towards peak_mem_mb nor moves the
// heap size the garbage collector paces the workload by.
type calTable struct {
	slots []uint64 // key, value pairs; key 0 marks an empty slot
	mask  uint64   // slot pairs - 1
	keys  []uint64 // every key, in the order the kernel probes them
	next  int
}

// mapWords maps n words of anonymous memory in small pages: whether a
// mapping got huge pages would otherwise vary from run to run, and with it
// the chase's time.
func mapWords(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err == nil {
		err = syscall.Madvise(b, syscall.MADV_NOHUGEPAGE)
	}
	if err != nil {
		panic(err)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

func calHash(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> 17 }

func newCalTable(n int, rng *rand.Rand) calTable {
	t := calTable{slots: mapWords(4 * n), mask: uint64(2*n - 1), keys: mapWords(n)}
	for i := range t.keys {
		k := rng.Uint64() | 1
		t.keys[i] = k
		for h := calHash(k) & t.mask; ; h = (h + 1) & t.mask {
			if t.slots[2*h] == 0 {
				t.slots[2*h], t.slots[2*h+1] = k, uint64(i)
				break
			}
		}
	}
	rng.Shuffle(n, func(i, j int) { t.keys[i], t.keys[j] = t.keys[j], t.keys[i] })
	return t
}

// probe looks up the next n keys, folding each value found into s.
func (t *calTable) probe(n int, s uint64) uint64 {
	for i := 0; i < n; i++ {
		k := t.keys[t.next]
		h := calHash(k) & t.mask
		for t.slots[2*h] != k {
			h = (h + 1) & t.mask
		}
		s = (s ^ t.slots[2*h+1]) * 0x2545f4914f6cdd1d
		if t.next++; t.next == len(t.keys) {
			t.next = 0
		}
	}
	return s
}

// calChase is a pointer chase over one random cycle through n words: every
// step is a dependent load from memory, since n words are more than the
// host's last-level cache holds, whatever the workload left in it.
type calChase struct {
	next []uint64
	pos  uint64
}

// newCalChase builds the cycle with Sattolo's shuffle, which yields a
// single cycle through every word.
func newCalChase(n int, rng *rand.Rand) calChase {
	c := calChase{next: mapWords(n)}
	for i := range c.next {
		c.next[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	return c
}

func (c *calChase) run(steps int) {
	p := c.pos
	for i := 0; i < steps; i++ {
		p = c.next[p]
	}
	c.pos = p
}
