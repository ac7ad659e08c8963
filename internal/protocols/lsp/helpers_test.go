package lsp

import (
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
)

// Test helpers shared by the white-box tests.

func configFor(id ident.ProcID, n, t int, signer sig.Signer, scheme sig.Scheme) protocol.NodeConfig {
	return protocol.NodeConfig{
		ID: id, N: n, T: t, Transmitter: 0,
		Signer: signer, Verifier: scheme,
	}
}
