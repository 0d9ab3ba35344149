package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// shmSegments lists the shared-memory segments a process created and did not
// remove. internal/mpi names them mpishm-<pid>-… under /dev/shm, or under
// the temporary directory where there is no /dev/shm.
func shmSegments(pid int) []string {
	var out []string
	for _, dir := range []string{"/dev/shm", os.TempDir()} {
		m, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("mpishm-%d-*", pid))) // the pattern is well-formed
		out = append(out, m...)
	}
	return out
}

// listeners lists this process's sockets still in the LISTEN state.
func listeners() []string {
	mine := map[string]bool{}
	fds, _ := os.ReadDir("/proc/self/fd") // unreadable /proc: nothing to report
	for _, fd := range fds {
		if l, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(l, "socket:[") {
			mine[strings.TrimSuffix(strings.TrimPrefix(l, "socket:["), "]")] = true
		}
	}
	var out []string
	for _, table := range []string{"/proc/self/net/tcp", "/proc/self/net/tcp6"} {
		b, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n")[1:] {
			f := strings.Fields(line)
			// local address, remote address, state, …, inode at column 9
			if len(f) > 9 && f[3] == "0A" && mine[f[9]] {
				out = append(out, "listening socket "+f[1])
			}
		}
	}
	return out
}

// worldGoroutines lists goroutines still inside the message-passing runtime
// or the scheduler. The shared-memory pool's parked workers are the
// process's own and are not a leak.
func worldGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "repro/internal/mpi.") || strings.Contains(g, "repro/internal/sched.") {
			head, _, _ := strings.Cut(g, "\n")
			frame := ""
			for _, line := range strings.Split(g, "\n") {
				if strings.HasPrefix(line, "repro/internal/") {
					frame = line
					break
				}
			}
			out = append(out, head+" in "+frame)
		}
	}
	return out
}

// leaks reports what the workload left behind after tear-down. Goroutines
// and sockets wind down just after the call that stops them returns, so the
// check allows them a moment.
func leaks() []string {
	var out []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		out = append(listeners(), worldGoroutines()...)
		if len(out) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, s := range shmSegments(os.Getpid()) {
		out = append(out, "shared-memory segment "+s)
	}
	return out
}
