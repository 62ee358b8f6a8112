package transport

import (
	"sync/atomic"
	"time"
)

// schedWaiter is how the delivery scheduler waits for its next due packet:
// on a runtime timer, or in the kernel (waitKernel). Either wait ends early
// when a packet due sooner is scheduled (wake).
//
// Why two: an idle Go runtime waits for its timers in epoll, whose timeout
// is whole milliseconds, so a sub-millisecond timer then fires about a
// millisecond late, several times the delays the network models. A kernel
// wait honours the timeout at microsecond grain, but the goroutine keeps
// its P while it sleeps in the system call, which costs a busy runtime
// throughput (see the deliverLoop comment for the measurements).
type schedWaiter struct {
	seq    uint32      // bumped by every wake; a plain word, as the kernel waits on its address
	kernel atomic.Bool // a kernel wait is in progress
	kick   chan struct{}
	timer  *time.Timer
}

func newSchedWaiter() *schedWaiter {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &schedWaiter{kick: make(chan struct{}, 1), timer: t}
}

// token returns what waitKernel compares against: a wake after token
// returns makes the following kernel wait return at once.
func (w *schedWaiter) token() uint32 { return atomic.LoadUint32(&w.seq) }

// waitTimer waits on the runtime timer until d has passed (d < 0: no
// deadline) or until a wake, and reports whether the timer fired.
func (w *schedWaiter) waitTimer(d time.Duration) (fired bool) {
	if d < 0 {
		<-w.kick
		return false
	}
	w.timer.Reset(d)
	select {
	case <-w.kick:
	case <-w.timer.C:
		fired = true
	}
	w.timer.Stop()
	return fired
}

// wake ends the current wait early; a timer wait that has not started yet
// returns at once (the kick is buffered), and so does a kernel wait whose
// token was taken before the wake.
func (w *schedWaiter) wake() {
	atomic.AddUint32(&w.seq, 1)
	if w.kernel.Load() {
		futexWake(&w.seq)
		return
	}
	select {
	case w.kick <- struct{}{}:
	default:
	}
}
