package mpi

import (
	"strings"
	"testing"
	"unsafe"
)

// TestAlltoallIntoReusesCapacity runs many rounds with per-pair lengths that
// shrink, vanish and come back: the payload must be right every round, and
// once a receive buffer has seen its largest block it must never move again.
func TestAlltoallIntoReusesCapacity(t *testing.T) {
	const p, rounds = 5, 40
	length := func(round, src, dst int) int { return (round*7 + src*3 + dst) % 6 } // 0 = nothing for this peer
	err := Run(p, func(c *Comm) {
		send := make([][]int, p)
		var recv [][]int
		base := make([]unsafe.Pointer, p)
		for round := 0; round < rounds; round++ {
			for dst := range send {
				send[dst] = send[dst][:0]
				for k := 0; k < length(round, c.Rank(), dst); k++ {
					send[dst] = append(send[dst], round*1000+c.Rank()*100+dst*10+k)
				}
			}
			if round == 0 {
				recv = AlltoallInto(c, send, nil)
				for i := range recv { // give every buffer the largest block it will see
					recv[i] = make([]int, 0, 6)
				}
				continue
			}
			got := AlltoallInto(c, send, recv)
			if &got[0] != &recv[0] {
				t.Errorf("rank %d round %d: AlltoallInto returned a new outer slice", c.Rank(), round)
			}
			for src, blk := range got {
				if len(blk) != length(round, src, c.Rank()) {
					t.Errorf("rank %d round %d: %d elements from rank %d, want %d", c.Rank(), round, len(blk), src, length(round, src, c.Rank()))
				}
				for k, v := range blk {
					if want := round*1000 + src*100 + c.Rank()*10 + k; v != want {
						t.Errorf("rank %d round %d: element %d from rank %d is %d, want %d", c.Rank(), round, k, src, v, want)
					}
				}
				ptr := unsafe.Pointer(unsafe.SliceData(blk))
				if round > 1 && ptr != base[src] {
					t.Errorf("rank %d round %d: receive buffer for rank %d moved although its capacity sufficed", c.Rank(), round, src)
				}
				base[src] = ptr
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallIntoGrowsWhenShort(t *testing.T) {
	err := Run(2, func(c *Comm) {
		recv := [][]float64{make([]float64, 0, 1), nil}
		send := [][]float64{{1, 2, 3}, {4, 5, 6}}
		recv = AlltoallInto(c, send, recv)
		for src, blk := range recv {
			want := send[c.Rank()] // both ranks send the same rows
			if len(blk) != 3 || blk[0] != want[0] || blk[2] != want[2] {
				t.Errorf("rank %d: block from %d = %v", c.Rank(), src, blk)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallIntoPanicsOnBadRecvLength(t *testing.T) {
	err := Run(3, func(c *Comm) {
		if c.Rank() == 0 {
			AlltoallInto(c, make([][]int, 3), make([][]int, 2)) // wrong entry count: panics
			return
		}
		c.Barrier() // the abort must unblock the peers
	})
	if err == nil || !strings.Contains(err.Error(), "AlltoallInto recv has 2 entries for 3 ranks") {
		t.Errorf("want an error naming the bad recv length, got %v", err)
	}
}

// TestAlltoallIntoAbortWakesBlockedPeer: a rank that dies instead of
// entering the collective must not leave the others waiting in it.
func TestAlltoallIntoAbortWakesBlockedPeer(t *testing.T) {
	hook := func(rank int, point string) bool { return rank == 2 }
	err := RunWithKillHook(3, hook, func(c *Comm) {
		c.FaultPoint("before/exchange")
		AlltoallInto(c, make([][]int, 3), make([][]int, 3))
		t.Errorf("rank %d: AlltoallInto returned in an aborted world", c.Rank())
	})
	if !IsAborted(err) {
		t.Fatalf("IsAborted(%v) = false, want true", err)
	}
}

func TestAllgatherInto(t *testing.T) {
	err := Run(4, func(c *Comm) {
		var recv []int
		for round := 0; round < 3; round++ {
			got := AllgatherInto(c, []int{round, c.Rank()}, recv)
			if round > 0 && unsafe.SliceData(got) != unsafe.SliceData(recv) {
				t.Errorf("rank %d round %d: receive buffer not reused", c.Rank(), round)
			}
			recv = got
			if len(recv) != 8 {
				t.Fatalf("rank %d: gathered %v", c.Rank(), recv)
			}
			for r := 0; r < 4; r++ {
				if recv[2*r] != round || recv[2*r+1] != r {
					t.Errorf("rank %d round %d: gathered %v", c.Rank(), round, recv)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastIntoInPlace is the relay mesh's use: every rank passes its own
// persistent buffer as both data and buf, and afterwards holds root's
// contents in that same buffer.
func TestBcastIntoInPlace(t *testing.T) {
	err := Run(4, func(c *Comm) {
		buf := []float64{float64(c.Rank()), float64(c.Rank()) + 0.5}
		out := BcastInto(c, 1, buf, buf)
		if unsafe.SliceData(out) != unsafe.SliceData(buf) {
			t.Errorf("rank %d: BcastInto did not receive in place", c.Rank())
		}
		if buf[0] != 1 || buf[1] != 1.5 {
			t.Errorf("rank %d: buffer holds %v, want root's [1 1.5]", c.Rank(), buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceInto(t *testing.T) {
	err := Run(4, func(c *Comm) {
		// In place on root 0: the persistent slab is input and output.
		slab := []float64{float64(c.Rank() + 1), 10}
		out := ReduceInto(c, 0, slab, slab, Sum[float64])
		if c.Rank() == 0 {
			if unsafe.SliceData(out) != unsafe.SliceData(slab) || slab[0] != 10 || slab[1] != 40 {
				t.Errorf("in-place reduce at root 0: %v", slab)
			}
		} else if out != nil || slab[0] != float64(c.Rank()+1) {
			t.Errorf("rank %d: out %v, data %v after a reduce it is not root of", c.Rank(), out, slab)
		}
		// Separate out on another root.
		data := []int{c.Rank()}
		into := make([]int, 1)
		if got := ReduceInto(c, 2, data, into, Sum[int]); c.Rank() == 2 && (got[0] != 6 || into[0] != 6) {
			t.Errorf("reduce into out at root 2: %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceIntoRejectsMisuse(t *testing.T) {
	for name, body := range map[string]func(c *Comm){
		"ReduceInto out has 1 elements for 2 of data": func(c *Comm) {
			ReduceInto(c, 0, []int{1, 2}, make([]int, 1), Sum[int])
		},
		"ReduceInto in place on a root other than rank 0": func(c *Comm) {
			d := []int{1, 2}
			ReduceInto(c, 1, d, d, Sum[int])
		},
	} {
		if err := Run(2, body); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("want an error saying %q, got %v", name, err)
		}
	}
}
