package audit

import (
	"encoding/json"
	"fmt"
	"io"
)

// Import reads a transcript produced by Export.
func Import(r io.Reader) (*History, error) {
	var in jsonHistory
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("audit: import: %w", err)
	}
	if in.N < 1 {
		return nil, fmt.Errorf("audit: import: n=%d", in.N)
	}
	h := New(in.N, in.Transmitter, in.Value)
	for _, f := range in.Faulty {
		h.Faulty.Add(f)
	}
	for i, edges := range in.Phases {
		for _, e := range edges {
			if int(e.From) < 0 || int(e.From) >= in.N || int(e.To) < 0 || int(e.To) >= in.N {
				return nil, fmt.Errorf("audit: import: edge %v->%v out of range", e.From, e.To)
			}
			h.Append(i+1, Edge{
				From: e.From, To: e.To, Label: e.Label,
				Signers: e.Signers, SigTotal: e.SigTotal,
			})
		}
	}
	return h, nil
}
