package eventq

import (
	"sync"
	"testing"
)

func TestFIFO(t *testing.T) {
	q := New[int]()
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestWaitSignals(t *testing.T) {
	q := New[string]()
	done := make(chan string)
	go func() {
		for {
			if v, ok := q.TryPop(); ok {
				done <- v
				return
			}
			<-q.Wait()
		}
	}()
	q.Push("x")
	if got := <-done; got != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestConcurrentProducers(t *testing.T) {
	q := New[int]()
	const producers, each = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.Push(i)
			}
		}()
	}
	wg.Wait()
	count := 0
	for {
		if _, ok := q.TryPop(); !ok {
			break
		}
		count++
	}
	if count != producers*each {
		t.Fatalf("popped %d of %d", count, producers*each)
	}
}

func TestClose(t *testing.T) {
	q := New[int]()
	q.Push(1)
	q.Close()
	q.Push(2) // dropped
	if q.Len() != 0 {
		t.Fatalf("len after close %d", q.Len())
	}
}

// TestFIFOAcrossCompaction: interleaved pushes and pops keep FIFO order and
// Len while Push compacts the consumed front, and a popped slot no longer
// holds its item.
func TestFIFOAcrossCompaction(t *testing.T) {
	q := New[*int]()
	next, want := 0, 0
	push := func(k int) {
		for ; k > 0; k-- {
			v := next
			q.Push(&v)
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			p, ok := q.TryPop()
			if !ok || *p != want {
				t.Fatalf("pop: got %v ok=%v, want %d", p, ok, want)
			}
			want++
		}
	}
	for round := 0; round < 200; round++ {
		push(1 + round%7)
		pop(round % 5)
		if got := q.Len(); got != next-want {
			t.Fatalf("round %d: Len %d, want %d", round, got, next-want)
		}
	}
	pop(next - want)
	if _, ok := q.TryPop(); ok || q.Len() != 0 {
		t.Fatal("queue not empty after draining")
	}

	// Retention: after a pop with items still queued, the consumed slot
	// is zero.
	push(3)
	pop(1)
	if q.head != 1 || q.items[0] != nil {
		t.Fatalf("consumed slot still holds %v (head %d)", q.items[0], q.head)
	}
}

// TestTryPopDoesNotShift: popping from a deep backlog moves no item (the
// next one stays where it was), and a steady push/pop cycle allocates
// nothing.
func TestTryPopDoesNotShift(t *testing.T) {
	q := New[int]()
	for i := 0; i < 1<<12; i++ {
		q.Push(i)
	}
	second := &q.items[q.head+1]
	if v, _ := q.TryPop(); v != 0 || &q.items[q.head] != second {
		t.Fatal("TryPop shifted the backlog")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		v, _ := q.TryPop()
		q.Push(v)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per pop/push at a backlog of %d", allocs, q.Len())
	}
}
