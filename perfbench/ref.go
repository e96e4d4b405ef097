package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: the same deterministic work
// takes from 0.7x to 1.4x its usual CPU time as other guests contend for
// the processor's cores and caches, and the level drifts over minutes.
// Process CPU time removes only the time the host takes the processor away
// entirely. So the benchmark samples the host's speed with a fixed
// reference computation, interleaved with the measured work on the same
// thread, and scales the CPU times it reports by refNominal over the
// reference's median CPU time in the run. A change to the program under
// test moves the scaled figures fully; a change in the host's speed moves
// the measured work and the reference alike, and cancels. The unscaled
// figures are reported beside them (cpu.*).
//
// The reference mixes cache-resident integer, sorting and floating-point
// work with string-keyed hash lookups over a few megabytes, as the layers
// under test do. On the host the benchmark was written on, over ten 30 s
// runs per workload, it cut the spread (interquartile range over median)
// of CPU time per operation between runs from 0.22 to 0.04 on synth, from
// 0.12 to 0.04 on simulate and from 0.17 to 0.09 on serve. In trials of
// eight runs the cache-resident part alone tracked the symbolic workloads
// less well, and the lookups alone the server. The symbol table adds about
// 4.5 MB to peak_rss_mb on every workload.

// refNominal is the reference's median CPU time on the host the benchmark
// was written on (2 vCPU Intel Xeon, Go 1.24); scaled figures read as CPU
// time on that host at its usual speed.
const refNominal = 4 * time.Millisecond

// refState is the reference computation's working set, allocated once so
// that the reference neither allocates nor waits for the garbage collector.
// The symbol table lives outside the Go heap, so that it neither adds to
// what the collector scans nor moves when it runs.
type refState struct {
	table  []uint64
	keys   []float64
	sorted []float64
	mat    [refDim * refDim]float64
	rng    uint64
	// names holds refSymbols names back to back; name i is
	// names[offs[i]:offs[i+1]]. slots is an open-addressed table of
	// name index+1 (low 32 bits) and a hit count (high 32 bits).
	names []byte
	offs  []uint32
	slots []uint64
	seed  maphash.Seed
}

const (
	refTableSize = 1 << 15 // 256 KiB of open-addressed hash table
	refKeys      = 1 << 12
	refDim       = 24
	refSymbols   = 1 << 17 // about 4.5 MB of symbol table
	refLookups   = 3500    // symbol lookups per round
)

func newRefState() (*refState, error) {
	s := &refState{table: make([]uint64, refTableSize), keys: make([]float64, refKeys), sorted: make([]float64, refKeys),
		rng: 88172645463325252, seed: maphash.MakeSeed()}
	for i := range s.keys {
		s.keys[i] = float64(s.next()%1000003) / 7
	}
	var names []byte
	offs := []uint32{0}
	for i := 0; i < refSymbols; i++ {
		names = fmt.Appendf(names, "sym_%d_q", i*7919)
		offs = append(offs, uint32(len(names)))
	}
	nameBytes, offBytes, slotBytes := len(names), 4*len(offs), 8*2*refSymbols
	mem, err := syscall.Mmap(-1, 0, nameBytes+offBytes+slotBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	s.names = mem[:nameBytes:nameBytes]
	copy(s.names, names)
	s.offs = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[nameBytes])), len(offs))
	copy(s.offs, offs)
	s.slots = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[nameBytes+offBytes])), 2*refSymbols)
	mask := uint64(len(s.slots) - 1)
	for i := 0; i < refSymbols; i++ {
		h := maphash.Bytes(s.seed, s.name(i)) & mask
		for s.slots[h] != 0 {
			h = (h + 1) & mask
		}
		s.slots[h] = uint64(i + 1)
	}
	return s, nil
}

func (s *refState) name(i int) []byte { return s.names[s.offs[i]:s.offs[i+1]] }

func (s *refState) next() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

// work is one round of the reference: integer hash-table inserts and
// probes, a sort, a dense LU factorization, and lookups of names in the
// symbol table.
func (s *refState) work() float64 {
	clear(s.table)
	mask := uint64(len(s.table) - 1)
	hits := 0
	for i := 0; i < len(s.table)/2; i++ {
		k := s.next() | 1
		for h := (k * 0x9E3779B97F4A7C15) & mask; ; h = (h + 1) & mask {
			if s.table[h] == 0 || s.table[h] == k {
				s.table[h] = k
				break
			}
		}
		q := s.next() | 1
		for h := (q * 0x9E3779B97F4A7C15) & mask; s.table[h] != 0; h = (h + 1) & mask {
			if s.table[h] == q {
				hits++
				break
			}
		}
	}
	copy(s.sorted, s.keys)
	slices.Sort(s.sorted)
	const n = refDim
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.mat[i*n+j] = float64(s.next()%1000) / 1000
		}
		s.mat[i*n+i] += n
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			f := s.mat[i*n+k] / s.mat[k*n+k]
			for j := k + 1; j < n; j++ {
				s.mat[i*n+j] -= f * s.mat[k*n+j]
			}
		}
	}
	smask := uint64(len(s.slots) - 1)
	for i := 0; i < refLookups; i++ {
		name := s.name(int(s.next() % refSymbols))
		for h := maphash.Bytes(s.seed, name) & smask; s.slots[h] != 0; h = (h + 1) & smask {
			if bytes.Equal(s.name(int(uint32(s.slots[h]))-1), name) {
				s.slots[h] += 1 << 32
				break
			}
		}
	}
	return float64(hits) + s.sorted[refKeys/2] + s.mat[n*n-1]
}

// refRounds is how many rounds one reference sample runs; about refNominal
// of CPU time on the host the benchmark was written on.
const refRounds = 2

// hostRef samples the host's speed with the reference computation.
type hostRef struct {
	state   *refState
	samples []float64 // CPU milliseconds per sample
	sink    float64
}

func newHostRef() (*hostRef, error) {
	st, err := newRefState()
	if err != nil {
		return nil, err
	}
	return &hostRef{state: st}, nil
}

// sample runs one reference sample and records its CPU time. It counts
// the time on its own thread alone, so that other goroutines' work does
// not enter it. A nil hostRef samples nothing.
func (h *hostRef) sample() {
	if h == nil {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	for i := 0; i < refRounds; i++ {
		h.sink += h.state.work()
	}
	h.samples = append(h.samples, millis(threadCPU()-t0))
}

// scale is the factor that takes a CPU time measured in this run to the
// reference host's usual speed.
func (h *hostRef) scale() float64 {
	return millis(refNominal) / median(h.samples)
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration { return clockCPU(clockThreadCPUTime) }

// The clock_gettime clocks of CPU time. getrusage would do, but on Linux
// it counts in scheduler ticks of several milliseconds.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockCPU(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
