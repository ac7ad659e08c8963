package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strconv"
	"sync"

	"byzex/internal/ident"
)

// The serving wire protocol is deliberately minimal: newline-delimited text
// so a load generator (cmd/baload), netcat or a test can drive it without a
// codec. One request per line:
//
//	<value>\n   submit the integer value, wait for its instance, reply
//	stats\n     reply with a Stats snapshot
//
// Replies:
//
//	OK <instance-id> <seed> <batch-size> <packed> <decided> <committed> <msgs-correct> <sigs-correct>\n
//	ERR full\n | ERR draining\n | ERR <message>\n
//	STATS <stats-json>\n
//
// The stats reply is one line of JSON (the Stats struct), so Client.Stats
// returns a typed snapshot and load generators (baload's SLO checks, the
// tests) compare counters instead of string-matching a display line.
//
// The OK reply carries everything needed to re-execute the instance
// serially (seed, packed value, and the template the operator already
// knows) and to account amortized costs (batch size, correct-sender message
// and signature counts) — the contract `baload -verify` checks.

// Serve accepts connections on ln and serves svc's line protocol until ctx
// is done or ln is closed; it returns nil on graceful shutdown. Each
// connection is handled by its own goroutine; requests on one connection
// are served sequentially (a closed loop), so concurrency is the number of
// connections.
func Serve(ctx context.Context, ln net.Listener, svc *Service) error {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { _ = ln.Close() })
		defer stop()
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = conn.Close() }()
			serveConn(ctx, conn, svc)
		}()
	}
}

func serveConn(ctx context.Context, conn net.Conn, svc *Service) {
	sc := bufio.NewScanner(conn)
	w := bufio.NewWriter(conn)
	var reply []byte // the connection's one reply buffer
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		reply = append(handleLine(ctx, svc, line, reply[:0]), '\n')
		if _, err := w.Write(reply); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// handleLine serves one request line, appending its reply (no newline) to dst.
func handleLine(ctx context.Context, svc *Service, line, dst []byte) []byte {
	if bytes.EqualFold(line, []byte("stats")) {
		b, err := json.Marshal(svc.Stats())
		if err != nil {
			return append(append(dst, "ERR stats: "...), err.Error()...)
		}
		return append(append(dst, "STATS "...), b...)
	}
	v, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return append(append(dst, "ERR bad request: "...), line...)
	}
	res, err := svc.SubmitWait(ctx, ident.Value(v))
	return appendReply(dst, res, err)
}

// appendReply appends the reply line for one submission's outcome to dst.
func appendReply(dst []byte, res Result, err error) []byte {
	switch {
	case errors.Is(err, ErrQueueFull):
		return append(dst, "ERR full"...)
	case errors.Is(err, ErrDraining):
		return append(dst, "ERR draining"...)
	case err != nil && !errors.Is(err, ErrNotCommitted):
		// Run or agreement failures are errors; a decided-but-uncommitted
		// instance still gets an OK reply with committed=0 so the client
		// sees what was agreed.
		return append(append(dst, "ERR "...), err.Error()...)
	}
	inst := res.Instance
	committed := int64(0)
	if res.Committed {
		committed = 1
	}
	dst = strconv.AppendUint(append(dst, "OK "...), inst.ID, 10)
	for _, f := range [...]int64{inst.Config.Seed, int64(len(inst.Values)), int64(inst.Config.Value),
		int64(res.Decided), committed, int64(inst.Report.MessagesCorrect), int64(inst.Report.SignaturesCorrect)} {
		dst = strconv.AppendInt(append(dst, ' '), f, 10)
	}
	return dst
}
