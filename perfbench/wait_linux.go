//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter sleeps the generator on a timerfd registered with the Go netpoller.
// The runtime's own timers wake an idle process through epoll with a
// whole-millisecond timeout, so time.Sleep between chunks a few hundred
// microseconds apart sent them up to a millisecond late. A timerfd wakes
// epoll at the kernel timer's precision, and the goroutine waiting on it
// holds no P (a nanosleep generator kept its P in the syscall and delayed
// the pumps it had just woken).
type waiter struct {
	fd int
	f  *os.File // nil when no timerfd could be made: time.Sleep stands in
}

func newWaiter() *waiter {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &waiter{}
	}
	// A non-blocking descriptor makes os.NewFile register it with the poller.
	return &waiter{fd: int(fd), f: os.NewFile(fd, "timerfd")}
}

// kind names the timer the generator used, for the run's detail.
func (w *waiter) kind() string {
	if w.f == nil {
		return "time.Sleep"
	}
	return "timerfd"
}

// until blocks until t.
func (w *waiter) until(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if w.f == nil {
		time.Sleep(d)
		return
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(w.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	var buf [8]byte
	if errno != 0 {
		time.Sleep(d)
	} else if _, err := w.f.Read(buf[:]); err != nil {
		time.Sleep(time.Until(t)) // a failed read must not send early
	}
}

func (w *waiter) close() {
	if w.f != nil {
		w.f.Close()
	}
}
