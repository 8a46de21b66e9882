package client_test

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"symmeter/internal/transport"
	"symmeter/pkg/client"
)

// scriptedServer is a loopback peer that speaks the server half of the
// sequenced protocol from a script: a non-zero handshake code refuses every
// handshake with that 'X' code, and each 'U'/'D' frame is answered with the
// next code of frames — 0 acks it, anything else refuses it with that code
// (the last code repeats once the script runs out).
type scriptedServer struct {
	addr      string
	handshake byte
	frames    []byte

	conns    atomic.Int32
	mu       sync.Mutex
	answered int
}

func startScripted(t *testing.T, handshake byte, frames ...byte) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := &scriptedServer{addr: ln.Addr().String(), handshake: handshake, frames: frames}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			ss.conns.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				ss.serve(conn)
			}()
		}
	}()
	return ss
}

func (ss *scriptedServer) serve(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := transport.ReadHandshake(br); err != nil {
		return
	}
	if ss.handshake != 0 {
		conn.Write(transport.AppendQueryErrorFrame(nil, 0, ss.handshake, "scripted refusal"))
		return
	}
	if _, err := conn.Write(transport.AppendAckFrame(nil, 0)); err != nil {
		return
	}
	dec := transport.NewDecoder(br)
	for {
		ev, err := dec.Next()
		if err != nil || ev.Type == transport.FrameEnd {
			return
		}
		ss.mu.Lock()
		code := ss.frames[min(ss.answered, len(ss.frames)-1)]
		ss.answered++
		ss.mu.Unlock()
		frame := transport.AppendAckFrame(nil, ev.Seq)
		if code != 0 {
			frame = transport.AppendQueryErrorFrame(nil, ev.Seq, code, "scripted refusal")
		}
		if _, err := conn.Write(frame); err != nil {
			return
		}
	}
}

func (ss *scriptedServer) framesAnswered() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.answered
}

// TestBackoffStopsOnOtherErrors pins the Session's retry contract: only the
// typed retryable refusals — degraded, overloaded, draining, busy — are
// waited out under the Backoff; any other verdict fails the call at once,
// and an exhausted budget returns the last refusal.
func TestBackoffStopsOnOtherErrors(t *testing.T) {
	table := degradedTable(t)
	syms := degradedSymbols(1, 0, table)
	fast := client.Backoff{Min: time.Millisecond, Attempts: 10}
	// push dials the scripted server, whose first frame (the table) is
	// always acked, and appends one batch.
	push := func(ss *scriptedServer, b client.Backoff) (client.SessionStats, error) {
		t.Helper()
		s, err := client.DialSession(ss.addr, 1, client.SessionConfig{Backoff: b})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.PushTable(table); err != nil {
			t.Fatal(err)
		}
		err = s.Append(0, 900, syms)
		return s.Stats(), err
	}

	ss := startScripted(t, 0, 0, transport.QErrInternal)
	st, err := push(ss, fast)
	var qe *transport.QueryError
	if !errors.As(err, &qe) || qe.Code != transport.QErrInternal || st.Retries != 0 || ss.framesAnswered() != 2 {
		t.Fatalf("non-retryable refusal: err %v after %d retries, %d frames; want it after 0 retries, 2 frames", err, st.Retries, ss.framesAnswered())
	}
	for _, code := range []byte{transport.VerdictDegraded, transport.VerdictOverloaded, transport.VerdictDraining, transport.VerdictBusy} {
		ss := startScripted(t, 0, 0, code, code, 0)
		st, err := push(ss, fast)
		if err != nil || st.Retries != 2 || ss.framesAnswered() != 4 {
			t.Fatalf("code %d twice then ack: err %v after %d retries; want nil after 2", code, err, st.Retries)
		}
	}
	ss = startScripted(t, 0, 0, transport.VerdictDegraded)
	if _, err := push(ss, client.Backoff{Min: time.Millisecond, Attempts: 4}); !errors.Is(err, client.ErrDegraded) || ss.framesAnswered() != 1+4 {
		t.Fatalf("exhausted attempts: %v after %d batch sends, want ErrDegraded after 4", err, ss.framesAnswered()-1)
	}
	if !client.Retryable(client.ErrOverloaded) || client.Retryable(errors.New("boom")) || client.Retryable(nil) {
		t.Fatal("Retryable predicate drifted from the Session contract")
	}
}

// TestDialSessionVersionRefusalIsFinal: a server that refuses the handshake
// as a version it does not speak gets exactly one dial — the refusal is not
// retryable, so the session neither backs off nor redials.
func TestDialSessionVersionRefusalIsFinal(t *testing.T) {
	ss := startScripted(t, transport.QErrVersion)
	start := time.Now()
	_, err := client.DialSession(ss.addr, 1, client.SessionConfig{
		Backoff: client.Backoff{Min: time.Second, Max: time.Second, Attempts: 5},
	})
	if !errors.Is(err, transport.ErrVersionMismatch) || client.Retryable(err) {
		t.Fatalf("err = %v, want a non-retryable ErrVersionMismatch", err)
	}
	if n := ss.conns.Load(); n != 1 {
		t.Fatalf("dialed %d times, want 1", n)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("refusal took %v: the session backed off", d)
	}
}
