// Package mpi is an in-process message-passing runtime that stands in for
// MPI on K computer: ranks are goroutines, communicators support the
// collectives GreeM uses (Barrier, Bcast, Reduce, Allreduce, Gather,
// Allgather, Alltoall/Alltoallv, Comm_split), and every operation is
// recorded in a traffic ledger so the perfmodel package can replay the
// communication pattern against a modeled interconnect.
//
// Semantics mirror MPI: all ranks of a communicator must call collectives in
// the same order; Split must be called by every rank of the parent.
//
// # Buffer ownership
//
// A collective only reads the data a rank passes in, and only between that
// rank's entry and its return: once the call returns the sender may overwrite
// its send buffers. What a collective returns belongs to the receiver. The
// plain forms (Alltoall, Allgather, Bcast, Reduce, …) return freshly
// allocated private copies. The Into forms (AlltoallInto, AllgatherInto,
// BcastInto, ReduceInto) write into buffers the receiver passes in, reusing
// their capacity, so a steady-state caller allocates nothing; the contents
// are valid until the receiver's next call with the same buffers. A receive
// buffer must not overlap anything the same rank passes as send data (peers
// read that while the rank is already writing its receives); ReduceInto
// states its one exception.
//
// # Abort contract
//
// When any rank panics (including an injected kill at a Comm.FaultPoint), the
// world aborts: every collective or Recv that is blocked, or is subsequently
// entered, panics with the typed value ErrAborted instead of deadlocking.
// Run recovers each rank's panic and returns the first one as an error with
// %w wrapping, so callers can test the outcome with IsAborted — true for a
// peer-failure cascade (degradable: resume from a checkpoint), false for a
// genuine programming error that must be surfaced. A rank that wants to
// clean up on a peer's death can recover() and check IsAborted itself; the
// world stays aborted, so it must not attempt further communication.
package mpi

import (
	"fmt"
	"sort"
	"sync"
	"unsafe"
)

// Run executes body on n ranks (goroutines) sharing one world. It returns
// the first panic converted to an error, after all ranks have finished or
// the panicking rank has unwound. A panicking rank closes the world so
// blocked peers fail fast rather than deadlock.
func Run(n int, body func(c *Comm)) error { return RunWithKillHook(n, nil, body) }

// RunWithKillHook is Run with a fault-injection hook: hook is consulted at
// every Comm.FaultPoint a rank passes and may elect to kill it there (see
// KillHook). A nil hook is exactly Run. Used by crash-restart tests to die
// mid-step or mid-checkpoint-write.
func RunWithKillHook(n int, hook KillHook, body func(c *Comm)) error {
	if n < 1 {
		return fmt.Errorf("mpi: need at least one rank, got %d", n)
	}
	w := &world{
		size:    n,
		boards:  make(map[boardKey]*board),
		mail:    make(map[mailKey]*mailbox),
		Traffic: &Traffic{},
		kill:    hook,
	}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					err, ok := p.(error)
					if ok {
						err = fmt.Errorf("mpi: rank %d panicked: %w", rank, err)
					} else {
						err = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					}
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					w.abort()
				}
			}()
			members := make([]int, n)
			for i := range members {
				members[i] = i
			}
			body(&Comm{world: w, id: commID{}, rank: rank, size: n, members: members})
		}(r)
	}
	wg.Wait()
	return firstErr
}

// RunCollect is Run plus a per-rank result slice: body's return value for
// rank r lands in out[r].
func RunCollect[T any](n int, body func(c *Comm) T) ([]T, error) {
	out := make([]T, n)
	err := Run(n, func(c *Comm) {
		out[c.Rank()] = body(c)
	})
	return out, err
}

type commID struct {
	parent uint64 // hash-chained id; world = 0
	seq    int    // split sequence number within parent
	color  int
}

type boardKey struct {
	id  commID
	seq int // collective sequence number within the comm
}

type mailKey struct {
	id       commID
	src, dst int
	tag      int
}

type world struct {
	size    int
	mu      sync.Mutex
	boards  map[boardKey]*board
	mail    map[mailKey]*mailbox
	aborted bool
	abortCh chan struct{}
	Traffic *Traffic
	kill    KillHook // fault-injection hook; nil in production runs
}

func (w *world) abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.aborted {
		w.aborted = true
		if w.abortCh != nil {
			close(w.abortCh)
		}
	}
	for _, b := range w.boards {
		b.abort()
	}
	for _, m := range w.mail {
		m.abort()
	}
}

func (w *world) getBoard(k boardKey, size int) *board {
	w.mu.Lock()
	defer w.mu.Unlock()
	b, ok := w.boards[k]
	if !ok {
		b = newBoard(size, w.aborted)
		w.boards[k] = b
	}
	return b
}

func (w *world) dropBoard(k boardKey) {
	w.mu.Lock()
	delete(w.boards, k)
	w.mu.Unlock()
}

func (w *world) getMailbox(k mailKey) *mailbox {
	w.mu.Lock()
	defer w.mu.Unlock()
	m, ok := w.mail[k]
	if !ok {
		m = newMailbox(w.aborted)
		w.mail[k] = m
	}
	return m
}

// Comm is a communicator handle held by one rank.
type Comm struct {
	world   *world
	id      commID
	rank    int
	size    int
	members []int // world ranks of the members, indexed by comm rank
	seq     int   // next collective sequence number
	nsplit  int
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// WorldRank returns this process's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.members[c.rank] }

// Members returns the world ranks of the communicator's members (comm rank
// order). The returned slice must not be modified.
func (c *Comm) Members() []int { return c.members }

// Traffic returns the world-wide traffic ledger.
func (c *Comm) Traffic() *Traffic { return c.world.Traffic }

// nextBoard returns this comm's board for the next collective. Every member
// calls it in lock-step (collective ordering contract).
func (c *Comm) nextBoard() (*board, boardKey) {
	k := boardKey{id: c.id, seq: c.seq}
	c.seq++
	return c.world.getBoard(k, c.size), k
}

func elemSize[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	b, k := c.nextBoard()
	b.await()
	b.await()
	if c.rank == 0 {
		c.world.dropBoard(k)
	}
}

// Bcast distributes root's data to every rank; each rank receives a copy.
// Non-root ranks pass their (ignored) local value, typically nil.
func Bcast[T any](c *Comm, root int, data []T) []T {
	out := BcastInto(c, root, data, nil)
	if c.rank == root {
		out = append([]T(nil), data...)
	}
	return out
}

// BcastInto is Bcast into a receiver-owned buffer: every rank but root gets
// root's data in buf[:0], grown only when its capacity is short, and returns
// it; root returns data itself. Passing the same slice as data and buf on
// every rank is MPI's in-place broadcast.
func BcastInto[T any](c *Comm, root int, data, buf []T) []T {
	b, k := c.nextBoard()
	if c.rank == root {
		b.slots[c.rank] = data
	}
	b.await()
	out := data
	if c.rank != root {
		out = append(buf[:0], b.slots[root].([]T)...)
	} else {
		// Model a binomial broadcast tree: log₂(p) rounds.
		c.world.Traffic.recordTree(c, root, len(data)*elemSize[T](), "Bcast", false)
	}
	b.await()
	if c.rank == 0 {
		c.world.dropBoard(k)
	}
	return out
}

// Gather collects each rank's data at root; returns per-rank slices at root
// and nil elsewhere.
func Gather[T any](c *Comm, root int, data []T) [][]T {
	b, k := c.nextBoard()
	b.slots[c.rank] = data
	b.await()
	var out [][]T
	if c.rank == root {
		out = make([][]T, c.size)
		var msgs []Message
		for i := 0; i < c.size; i++ {
			s := b.slots[i].([]T)
			out[i] = append([]T(nil), s...)
			if i != root {
				msgs = append(msgs, Message{Src: c.members[i], Dst: c.members[root], Bytes: len(s) * elemSize[T]()})
			}
		}
		c.world.Traffic.record(Op{Name: "Gather", Comm: c.id, CommSize: c.size, Msgs: msgs})
	}
	b.await()
	if c.rank == 0 {
		c.world.dropBoard(k)
	}
	return out
}

// Allgather collects every rank's data everywhere.
func Allgather[T any](c *Comm, data []T) [][]T {
	b, k := c.nextBoard()
	b.slots[c.rank] = data
	b.await()
	out := make([][]T, c.size)
	for i := 0; i < c.size; i++ {
		out[i] = append([]T(nil), b.slots[i].([]T)...)
	}
	recordAllgather[T](c, b)
	b.await()
	if c.rank == 0 {
		c.world.dropBoard(k)
	}
	return out
}

// recordAllgather enters an allgather whose contributions sit on board b in
// the traffic ledger (rank 0 only): every rank's data to every other rank.
func recordAllgather[T any](c *Comm, b *board) {
	if c.rank != 0 {
		return
	}
	var msgs []Message
	for i := 0; i < c.size; i++ {
		bytes := len(b.slots[i].([]T)) * elemSize[T]()
		for j := 0; j < c.size; j++ {
			if i != j {
				msgs = append(msgs, Message{Src: c.members[i], Dst: c.members[j], Bytes: bytes})
			}
		}
	}
	c.world.Traffic.record(Op{Name: "Allgather", Comm: c.id, CommSize: c.size, Msgs: msgs})
}

// AllgatherInto is Allgather with every rank's data stored back to back, in
// rank order, in recv[:0] (grown only when its capacity is short). It suits
// the fixed-size contributions — one cost, one count per rank — whose
// per-rank boundaries the caller knows.
func AllgatherInto[T any](c *Comm, data, recv []T) []T {
	b, k := c.nextBoard()
	b.slots[c.rank] = data
	b.await()
	recv = recv[:0]
	for i := 0; i < c.size; i++ {
		recv = append(recv, b.slots[i].([]T)...)
	}
	recordAllgather[T](c, b)
	b.await()
	if c.rank == 0 {
		c.world.dropBoard(k)
	}
	return recv
}

// Alltoall delivers send[j] from each rank to rank j; the result's element i
// is what rank i sent to this rank. Slices may have arbitrary per-pair
// lengths, so this doubles as MPI_Alltoallv. The result is freshly allocated.
func Alltoall[T any](c *Comm, send [][]T) [][]T { return AlltoallInto(c, send, nil) }

// AlltoallInto is Alltoall into receiver-owned buffers: what rank i sent
// lands in recv[i][:0], grown only when its capacity is short, and recv is
// returned. A nil recv allocates the whole result; otherwise recv must have
// one entry per rank (entries may be nil).
func AlltoallInto[T any](c *Comm, send, recv [][]T) [][]T {
	if len(send) != c.size {
		panic(fmt.Sprintf("mpi: Alltoall send has %d entries for %d ranks", len(send), c.size))
	}
	if recv == nil {
		recv = make([][]T, c.size)
	} else if len(recv) != c.size {
		panic(fmt.Sprintf("mpi: AlltoallInto recv has %d entries for %d ranks", len(recv), c.size))
	}
	b, k := c.nextBoard()
	b.slots[c.rank] = send
	b.await()
	for i := 0; i < c.size; i++ {
		recv[i] = append(recv[i][:0], b.slots[i].([][]T)[c.rank]...)
	}
	if c.rank == 0 {
		var msgs []Message
		for i := 0; i < c.size; i++ {
			si := b.slots[i].([][]T)
			for j := 0; j < c.size; j++ {
				if i == j || len(si[j]) == 0 {
					continue
				}
				msgs = append(msgs, Message{Src: c.members[i], Dst: c.members[j], Bytes: len(si[j]) * elemSize[T]()})
			}
		}
		c.world.Traffic.record(Op{Name: "Alltoallv", Comm: c.id, CommSize: c.size, Msgs: msgs})
	}
	b.await()
	if c.rank == 0 {
		c.world.dropBoard(k)
	}
	return recv
}

// Reduce combines equal-length slices element-wise with op, leaving the
// result at root (nil elsewhere). The combine order is fixed (rank 0..p−1)
// for determinism.
func Reduce[T any](c *Comm, root int, data []T, op func(a, b T) T) []T {
	var out []T
	if c.rank == root {
		out = make([]T, len(data))
	}
	return ReduceInto(c, root, data, out, op)
}

// ReduceInto is Reduce with the result written into root's out, which must
// have len(data); out is ignored, and nil returned, on every other rank. On
// root 0 out may be data itself — rank 0's contribution is folded first, so
// the reduce is then in place; on any other root that would fold a clobbered
// contribution, and panics.
func ReduceInto[T any](c *Comm, root int, data, out []T, op func(a, b T) T) []T {
	b, k := c.nextBoard()
	b.slots[c.rank] = data
	b.await()
	if c.rank == root {
		if len(out) != len(data) {
			panic(fmt.Sprintf("mpi: ReduceInto out has %d elements for %d of data", len(out), len(data)))
		}
		if root != 0 && len(out) > 0 && &out[0] == &data[0] {
			panic("mpi: ReduceInto in place on a root other than rank 0")
		}
		for i := 0; i < c.size; i++ {
			s := b.slots[i].([]T)
			if len(s) != len(out) {
				panic("mpi: Reduce length mismatch")
			}
			if i == 0 {
				copy(out, s)
				continue
			}
			for j := range out {
				out[j] = op(out[j], s[j])
			}
		}
		c.world.Traffic.recordTree(c, root, len(out)*elemSize[T](), "Reduce", true)
	} else {
		out = nil
	}
	b.await()
	if c.rank == 0 {
		c.world.dropBoard(k)
	}
	return out
}

// Allreduce is Reduce delivered to every rank.
func Allreduce[T any](c *Comm, data []T, op func(a, b T) T) []T {
	b, k := c.nextBoard()
	b.slots[c.rank] = data
	b.await()
	out := append([]T(nil), b.slots[0].([]T)...)
	for i := 1; i < c.size; i++ {
		s := b.slots[i].([]T)
		if len(s) != len(out) {
			panic("mpi: Allreduce length mismatch")
		}
		for j := range out {
			out[j] = op(out[j], s[j])
		}
	}
	if c.rank == 0 {
		c.world.Traffic.recordTree(c, 0, len(out)*elemSize[T](), "Allreduce", true)
	}
	b.await()
	if c.rank == 0 {
		c.world.dropBoard(k)
	}
	return out
}

// Sum is the addition reducer for Reduce/Allreduce.
func Sum[T int | int64 | float64](a, b T) T { return a + b }

// Max is the maximum reducer.
func Max[T int | int64 | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Min is the minimum reducer.
func Min[T int | int64 | float64](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// Split partitions the communicator by color, ordering ranks within each
// child by (key, parent rank), exactly like MPI_Comm_split. Every rank of
// the parent must call Split; each receives its own child communicator.
func (c *Comm) Split(color, key int) *Comm {
	type ck struct{ Color, Key, Rank int }
	all := Allgather(c, []ck{{color, key, c.rank}})
	var mine []ck
	for _, s := range all {
		if s[0].Color == color {
			mine = append(mine, s[0])
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].Key != mine[j].Key {
			return mine[i].Key < mine[j].Key
		}
		return mine[i].Rank < mine[j].Rank
	})
	newRank := -1
	members := make([]int, len(mine))
	for i, s := range mine {
		members[i] = c.members[s.Rank]
		if s.Rank == c.rank {
			newRank = i
		}
	}
	child := &Comm{
		world:   c.world,
		id:      commID{parent: hashID(c.id), seq: c.nsplit, color: color},
		rank:    newRank,
		size:    len(mine),
		members: members,
	}
	c.nsplit++
	return child
}

// dupColor marks communicators produced by Dup in their commID, so a Dup can
// never collide with a Split child (user colors are plain ints; Split children
// of the same call share the parent's nsplit value, which Dup also consumes).
const dupColor = int(^uint(0)>>1)&^0xffff | 0xd0b

// Dup returns a duplicate communicator: the same members, ranks and world,
// but a fresh communication context — collectives on the duplicate use their
// own board space and never match collectives on the parent, exactly like
// MPI_Comm_dup. This is what lets one rank drive two concurrent collective
// streams (e.g. the async PM solve against the PP ghost exchange) from two
// goroutines without interleaving.
//
// Dup is collective by contract: every rank of the parent must call it, in
// the same order relative to other Dup/Split calls on the same parent (it
// consumes the parent's split-sequence counter). No communication happens.
func (c *Comm) Dup() *Comm {
	d := &Comm{
		world:   c.world,
		id:      commID{parent: hashID(c.id), seq: c.nsplit, color: dupColor},
		rank:    c.rank,
		size:    c.size,
		members: c.members,
	}
	c.nsplit++
	return d
}

// SetTrafficLabel tags ops subsequently recorded on THIS communicator in the
// world traffic ledger with a phase label (e.g. "pp/ghosts"); the empty
// string clears it. Labels are per-communicator, so a label set around a
// world-comm phase never leaks onto ops another goroutine records on a
// duplicated or split communicator at the same time. Call from a single rank
// around the communication phase.
func (c *Comm) SetTrafficLabel(label string) {
	c.world.Traffic.setLabel(c.id, label)
}

func hashID(id commID) uint64 {
	h := id.parent*1000003 + uint64(id.seq)*8191 + uint64(int64(id.color))*131
	return h*2654435761 + 1
}

// Send delivers data to dst (comm rank) with a tag; it does not block on the
// receiver (buffered, like MPI_Isend + eventual completion).
func Send[T any](c *Comm, dst, tag int, data []T) {
	k := mailKey{id: c.id, src: c.rank, dst: dst, tag: tag}
	m := c.world.getMailbox(k)
	m.put(append([]T(nil), data...))
	c.world.Traffic.record(Op{Name: "Send", Comm: c.id, CommSize: c.size, Msgs: []Message{
		{Src: c.members[c.rank], Dst: c.members[dst], Bytes: len(data) * elemSize[T]()},
	}})
}

// Recv blocks until a message with the given source and tag arrives and
// returns it.
func Recv[T any](c *Comm, src, tag int) []T {
	k := mailKey{id: c.id, src: src, dst: c.rank, tag: tag}
	m := c.world.getMailbox(k)
	v := m.take()
	if v == nil {
		panic(ErrAborted)
	}
	return v.([]T)
}

// --- synchronization primitives ---

// board is a slot array plus a reusable barrier for one collective.
type board struct {
	slots []any
	mu    sync.Mutex
	cond  *sync.Cond
	count int
	gen   int
	size  int
	dead  bool
}

func newBoard(size int, dead bool) *board {
	b := &board{slots: make([]any, size), size: size, dead: dead}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *board) abort() {
	b.mu.Lock()
	b.dead = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *board) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		panic(ErrAborted)
	}
	gen := b.gen
	b.count++
	if b.count == b.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.dead {
		b.cond.Wait()
	}
	if b.dead {
		panic(ErrAborted)
	}
}

// mailbox is an unbounded FIFO queue for one (comm, src, dst, tag) edge.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []any
	dead bool
}

func newMailbox(dead bool) *mailbox {
	m := &mailbox{dead: dead}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) abort() {
	m.mu.Lock()
	m.dead = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

func (m *mailbox) put(v any) {
	m.mu.Lock()
	m.q = append(m.q, v)
	m.cond.Signal()
	m.mu.Unlock()
}

func (m *mailbox) take() any {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.q) == 0 && !m.dead {
		m.cond.Wait()
	}
	if len(m.q) == 0 {
		return nil
	}
	v := m.q[0]
	m.q = m.q[1:]
	return v
}
