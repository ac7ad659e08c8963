package audit

import (
	"encoding/json"
	"fmt"
	"io"

	"byzex/internal/ident"
)

// JSON transcript format for tooling: `basim -dump` writes it, external
// analysis reads it (the round-trip reader lives with the tests). Labels serialize as base64 via
// encoding/json's []byte handling.

type jsonEdge struct {
	From     ident.ProcID   `json:"from"`
	To       ident.ProcID   `json:"to"`
	Label    []byte         `json:"label,omitempty"`
	Signers  []ident.ProcID `json:"signers,omitempty"`
	SigTotal int            `json:"sigTotal,omitempty"`
}

type jsonHistory struct {
	N           int            `json:"n"`
	Transmitter ident.ProcID   `json:"transmitter"`
	Value       ident.Value    `json:"value"`
	Faulty      []ident.ProcID `json:"faulty,omitempty"`
	Phases      [][]jsonEdge   `json:"phases"`
}

// Export writes the history as an indented JSON transcript.
func (h *History) Export(w io.Writer) error {
	out := jsonHistory{
		N:           h.N,
		Transmitter: h.Transmitter,
		Value:       h.Value,
		Faulty:      h.Faulty.Sorted(),
		Phases:      make([][]jsonEdge, 0, h.NumPhases()),
	}
	for ph := 1; ph <= h.NumPhases(); ph++ {
		edges := make([]jsonEdge, 0, len(h.Phases[ph]))
		for _, e := range h.Phases[ph] {
			edges = append(edges, jsonEdge{
				From: e.From, To: e.To, Label: e.Label,
				Signers: e.Signers, SigTotal: e.SigTotal,
			})
		}
		out.Phases = append(out.Phases, edges)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("history: export: %w", err)
	}
	return nil
}
