package main

import (
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// dueTimer wakes the load generator at a request's due time. time.Sleep
// wakes up to a millisecond late on Linux (the runtime's poller waits in
// whole milliseconds), which an open-loop schedule would charge to the
// server. A timerfd read through the runtime's poller wakes within tens of
// microseconds and parks the goroutine meanwhile, so it costs no CPU the
// server could use; the last spinAhead is a yielding spin.
type dueTimer struct {
	fd uintptr  // for timerfd_settime; f.Fd() would make reads blocking
	f  *os.File // reads park in the runtime's poller
}

const spinAhead = 100 * time.Microsecond

func newDueTimer() (*dueTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	return &dueTimer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil returns at due, or at once when due has passed.
func (t *dueTimer) sleepUntil(due time.Time) error {
	if wait := time.Until(due) - spinAhead; wait > 0 {
		spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(wait))} // interval, value
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return errno
		}
		var expirations [8]byte
		if _, err := t.f.Read(expirations[:]); err != nil {
			return err
		}
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return nil
}

func (t *dueTimer) close() { t.f.Close() }
