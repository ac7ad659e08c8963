package service

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/metrics"
)

// TestReplyRoundTrip formats each kind of reply, checks its bytes against the
// fmt rendering the line protocol has always used, and parses it back with
// and without a trailing carriage return.
func TestReplyRoundTrip(t *testing.T) {
	inst := func(id uint64, seed int64, batch int, packed ident.Value, msgs, sigs int) *InstanceResult {
		return &InstanceResult{
			Instance: Instance{ID: id, Config: core.Config{Seed: seed, Value: packed}, Values: make([]ident.Value, batch)},
			Report:   metrics.Report{MessagesCorrect: msgs, SignaturesCorrect: sigs},
		}
	}
	okLine := func(r Reply) string {
		committed := 0
		if r.Committed {
			committed = 1
		}
		return fmt.Sprintf("OK %d %d %d %d %d %d %d %d", r.InstanceID, r.Seed, r.Batch, int64(r.Packed),
			int64(r.Decided), committed, r.Msgs, r.Sigs)
	}
	boom := errors.New("run failed: boom")
	for _, tc := range []struct {
		name    string
		res     Result
		err     error
		want    Reply  // for OK replies
		line    string // for ERR replies
		wantErr error  // for ERR replies; nil means "any server error"
	}{
		{name: "ok", res: Result{Decided: 7, Committed: true, Instance: inst(3, 42, 1, 7, 12, 20)},
			want: Reply{InstanceID: 3, Seed: 42, Batch: 1, Packed: 7, Decided: 7, Committed: true, Msgs: 12, Sigs: 20}},
		{name: "ok-extremes", res: Result{Decided: -9, Committed: true, Instance: inst(math.MaxUint64, math.MaxInt64, 8, -9, 0, 0)},
			want: Reply{InstanceID: math.MaxUint64, Seed: math.MaxInt64, Batch: 8, Packed: -9, Decided: -9, Committed: true}},
		{name: "ok-negative-seed", res: Result{Decided: math.MinInt64, Committed: true, Instance: inst(0, math.MinInt64, 2, math.MinInt64, 1, 1)},
			want: Reply{Seed: math.MinInt64, Batch: 2, Packed: math.MinInt64, Decided: math.MinInt64, Committed: true, Msgs: 1, Sigs: 1}},
		{name: "not-committed", err: fmt.Errorf("%w: x", ErrNotCommitted), res: Result{Decided: 0, Instance: inst(5, -1, 1, 1, 4, 4)},
			want: Reply{InstanceID: 5, Seed: -1, Batch: 1, Packed: 1, Msgs: 4, Sigs: 4}},
		{name: "full", err: ErrQueueFull, line: "ERR full", wantErr: ErrQueueFull},
		{name: "draining", err: fmt.Errorf("wrapped: %w", ErrDraining), line: "ERR draining", wantErr: ErrDraining},
		{name: "message", err: boom, line: "ERR run failed: boom"},
	} {
		line := string(appendReply(nil, tc.res, tc.err))
		if tc.line == "" {
			tc.line = okLine(tc.want)
		}
		if line != tc.line {
			t.Errorf("%s: formatted %q, want %q", tc.name, line, tc.line)
		}
		for _, tail := range []string{"\n", "\r\n"} {
			got, err := parseReply(line + tail)
			switch {
			case strings.HasPrefix(line, "OK "):
				if err != nil || got != tc.want {
					t.Errorf("%s%q: parsed %+v, %v; want %+v", tc.name, tail, got, err, tc.want)
				}
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Errorf("%s%q: parsed error %v, want %v", tc.name, tail, err, tc.wantErr)
				}
			case err == nil || !strings.Contains(err.Error(), "server error: "+boom.Error()):
				t.Errorf("%s%q: parsed error %v, want the server's message", tc.name, tail, err)
			}
		}
	}
	for _, bad := range []string{"OK 1 2 3 4 5 6 7", "OK 1 2 3 4 5 6 7 8 9", "OK  1 2 3 4 5 6 7 8", "OK x 2 3 4 5 6 7 8", "NO 1 2 3 4 5 6 7 8"} {
		if _, err := parseReply(bad); err == nil {
			t.Errorf("parseReply(%q) accepted a malformed reply", bad)
		}
	}
}
