package mpi

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
	"unsafe"
)

// The shared-memory segment: one mmap-backed file that every same-host rank
// of a world maps, holding a small header plus an np x np grid of
// single-producer/single-consumer pair blocks. Each ordered pair (src, dst)
// owns one block: a message ring for eager records and rendezvous
// descriptors, and a large-message region that rendezvous payloads are
// staged in so the receiver copies (or views) them exactly once. Only the
// sender of a pair produces into its block and only the receiver consumes,
// so every ring is a true SPSC queue and all cross-process synchronization
// is a pair of acquire/release position words per ring — no futexes, no
// locks shared across processes.
//
// File layout (all offsets 8-aligned, positions little-endian):
//
//	header page (shmSegHdrSize bytes):
//	  magic u64 | version u32 | np u32 | ringCap u64 | largeCap u64 |
//	  host fingerprint (shmHostIDLen bytes) | per-rank attach words (u32 each)
//	pair block (src, dst), for src, dst in [0, np):
//	  pair header (shmPairHdrSize bytes):
//	    msgTail u64 @ 0   (producer write position, monotonic)
//	    msgHead u64 @ 64  (consumer read position, monotonic)
//	    largeTail u64 @ 128, largeHead u64 @ 136 (large-region allocator)
//	  message ring data (ringCap bytes)
//	  large-message region (largeCap bytes)
//	window heap, per rank r in [0, np): winCap bytes (version 2)
//
// The tail/head words live on separate cache lines so producer and consumer
// do not false-share. Positions are monotonic byte counts; offsets are
// position mod capacity. The file is created sparse, so the np^2 grid costs
// only the pages traffic actually touches.
//
// Version 2 appends the window heaps: one winCap-byte region per rank,
// after the pair grid, that the one-sided layer (win.go) carves RMA window
// memory out of. Each rank bump-allocates exclusively from its own heap and
// publishes the offsets through an ordinary Allgather at window creation,
// so the heaps need no shared allocator state — a peer's Put/Get is a plain
// memcpy against the published offset. Like the pair grid, the heaps are
// virtual until touched.
const (
	shmMagic      uint64 = 0x70646d2d73686d31 // "pdm-shm1"
	shmSegVersion uint32 = 2

	shmSegHdrSize  = 4096
	shmPairHdrSize = 256
	shmHostIDLen   = 64

	shmOffMagic    = 0
	shmOffVersion  = 8
	shmOffNP       = 12
	shmOffRingCap  = 16
	shmOffLargeCap = 24
	shmOffHostID   = 32
	shmOffAttach   = shmOffHostID + shmHostIDLen
	shmOffWinCap   = shmOffAttach + 4*maxShmRanks

	shmPairOffMsgTail   = 0
	shmPairOffMsgHead   = 64
	shmPairOffLargeTail = 128
	shmPairOffLargeHead = 136

	// defaultShmRingCap sizes each pair's message ring; defaultShmLargeCap
	// sizes its rendezvous staging region. Both are per ordered pair, and
	// both are virtual until touched. defaultShmWinCap sizes each rank's
	// window heap.
	defaultShmRingCap  = 256 << 10
	defaultShmLargeCap = 4 << 20
	defaultShmWinCap   = 8 << 20

	// maxShmRanks bounds a segment's world: the header holds one attach
	// word per rank below shmOffWinCap.
	maxShmRanks = 64
)

// Per-rank attach word states. A rank's word moves absent -> attached when
// it maps the segment (before its hub hello, so the state is stable by the
// time the start signal releases any sender) and attached -> departed when
// it closes. Senders decide shm-vs-TCP per destination from this word, and
// blocked senders watch it so a peer that left can never wedge them.
const (
	shmAbsent   uint32 = 0
	shmAttached uint32 = 1
	shmDeparted uint32 = 2
)

// ErrShmUnsupported is returned by the shared-memory transport on platforms
// without mmap support (see shmmap_stub.go).
var ErrShmUnsupported = errors.New("mpi: shared-memory transport not supported on this platform")

// errShmHostMismatch marks a segment created on a different host: the rank
// falls back to the TCP data plane instead of failing.
var errShmHostMismatch = errors.New("mpi: shm segment belongs to a different host")

// shmSegment is one rank's mapping of the segment file.
type shmSegment struct {
	data     []byte
	np       int
	ringCap  uint64
	largeCap uint64
	winCap   uint64
	path     string
}

// shmAtU64 and shmAtU32 view an 8- (4-) aligned offset of the mapping as an
// atomic word. The mapping is page-aligned, and every offset the layout
// produces keeps the alignment, so the casts are valid on every supported
// GOARCH.
func shmAtU64(b []byte, off uint64) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&b[off]))
}

func shmAtU32(b []byte, off uint64) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&b[off]))
}

func shmPairSize(ringCap, largeCap uint64) uint64 {
	return shmPairHdrSize + ringCap + largeCap
}

// pairOff returns the byte offset of the (src, dst) pair block.
func (s *shmSegment) pairOff(src, dst int) uint64 {
	return shmSegHdrSize + uint64(src*s.np+dst)*shmPairSize(s.ringCap, s.largeCap)
}

// winOff returns the byte offset of rank r's window heap.
func (s *shmSegment) winOff(r int) uint64 {
	return shmSegHdrSize + uint64(s.np*s.np)*shmPairSize(s.ringCap, s.largeCap) + uint64(r)*s.winCap
}

func (s *shmSegment) attachWord(rank int) *atomic.Uint32 {
	return shmAtU32(s.data, shmOffAttach+4*uint64(rank))
}

func (s *shmSegment) attachState(rank int) uint32 {
	return s.attachWord(rank).Load()
}

// shmHostFingerprint identifies the machine a segment was created on, so a
// rank on a different host (sharing the path over a network filesystem,
// say) falls back to TCP instead of mapping memory it cannot share.
func shmHostFingerprint() [shmHostIDLen]byte {
	var id [shmHostIDLen]byte
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "localhost"
	}
	copy(id[:], host)
	return id
}

// shmBaseDir picks where auto-named segments live: a tmpfs when the
// platform offers the conventional one, the default temp dir otherwise.
func shmBaseDir() string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

var shmSegSeq atomic.Uint64

// checkShmRanks refuses a world of np ranks that no segment can hold.
func checkShmRanks(np int) error {
	if np < 1 || np > maxShmRanks {
		return fmt.Errorf("mpi: shm segment supports 1..%d ranks, got %d", maxShmRanks, np)
	}
	return nil
}

// CreateShmSegment creates and initializes a shared-memory segment file for
// an np-rank world and returns its path. An empty path auto-names a file
// under the host's shared-memory directory (/dev/shm when present). The
// ranks unlink the file themselves once the world has formed and keep their
// pages until they unmap; the caller — typically the launcher — still
// removes it when the world is done, for one that never formed.
func CreateShmSegment(path string, np int) (string, error) {
	if !shmSupported {
		return "", ErrShmUnsupported
	}
	if err := checkShmRanks(np); err != nil {
		return "", err
	}
	ringCap, largeCap, winCap := uint64(defaultShmRingCap), uint64(defaultShmLargeCap), uint64(defaultShmWinCap)
	size := uint64(shmSegHdrSize) + uint64(np*np)*shmPairSize(ringCap, largeCap) + uint64(np)*winCap

	if path == "" {
		path = filepath.Join(shmBaseDir(),
			fmt.Sprintf("mpishm-%d-%d-%d.seg", os.Getpid(), time.Now().UnixNano(), shmSegSeq.Add(1)))
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return "", fmt.Errorf("mpi: creating shm segment: %w", err)
	}
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		os.Remove(path)
		return "", fmt.Errorf("mpi: sizing shm segment: %w", err)
	}
	data, err := shmMapFile(f, int(size))
	f.Close() // the mapping outlives the descriptor
	if err != nil {
		os.Remove(path)
		return "", fmt.Errorf("mpi: mapping shm segment: %w", err)
	}
	le.PutUint32(data[shmOffVersion:], shmSegVersion)
	le.PutUint32(data[shmOffNP:], uint32(np))
	le.PutUint64(data[shmOffRingCap:], ringCap)
	le.PutUint64(data[shmOffLargeCap:], largeCap)
	le.PutUint64(data[shmOffWinCap:], winCap)
	id := shmHostFingerprint()
	copy(data[shmOffHostID:], id[:])
	// The magic goes last: a joiner that maps a half-written header sees no
	// magic and retries/fails rather than trusting garbage capacities.
	shmAtU64(data, shmOffMagic).Store(shmMagic)
	if err := shmUnmap(data); err != nil {
		os.Remove(path)
		return "", fmt.Errorf("mpi: unmapping shm segment after init: %w", err)
	}
	return path, nil
}

// openShmSegment maps an existing segment for one rank and validates it
// against the expected world shape. A host-fingerprint mismatch returns
// errShmHostMismatch, which the caller treats as "use TCP".
func openShmSegment(path string, np int) (*shmSegment, error) {
	if !shmSupported {
		return nil, ErrShmUnsupported
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("mpi: opening shm segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("mpi: shm segment stat: %w", err)
	}
	if fi.Size() < shmSegHdrSize {
		f.Close()
		return nil, fmt.Errorf("mpi: shm segment %s too small (%d bytes)", path, fi.Size())
	}
	data, err := shmMapFile(f, int(fi.Size()))
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("mpi: mapping shm segment: %w", err)
	}
	fail := func(err error) (*shmSegment, error) {
		shmUnmap(data)
		return nil, err
	}
	if shmAtU64(data, shmOffMagic).Load() != shmMagic {
		return fail(fmt.Errorf("mpi: %s is not an initialized shm segment", path))
	}
	if v := le.Uint32(data[shmOffVersion:]); v != shmSegVersion {
		return fail(fmt.Errorf("mpi: shm segment version %d, want %d", v, shmSegVersion))
	}
	if segNP := int(le.Uint32(data[shmOffNP:])); segNP != np {
		return fail(fmt.Errorf("mpi: shm segment built for %d ranks, world has %d", segNP, np))
	}
	ringCap := le.Uint64(data[shmOffRingCap:])
	largeCap := le.Uint64(data[shmOffLargeCap:])
	winCap := le.Uint64(data[shmOffWinCap:])
	want := uint64(shmSegHdrSize) + uint64(np*np)*shmPairSize(ringCap, largeCap) + uint64(np)*winCap
	if uint64(fi.Size()) < want {
		return fail(fmt.Errorf("mpi: shm segment truncated: %d bytes, want %d", fi.Size(), want))
	}
	id := shmHostFingerprint()
	if string(data[shmOffHostID:shmOffHostID+shmHostIDLen]) != string(id[:]) {
		return fail(errShmHostMismatch)
	}
	return &shmSegment{data: data, np: np, ringCap: ringCap, largeCap: largeCap, winCap: winCap, path: path}, nil
}

func (s *shmSegment) unmap() error { return shmUnmap(s.data) }
