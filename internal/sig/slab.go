package sig

import (
	"slices"

	"byzex/internal/ident"
	"byzex/internal/wire"
)

// Slab is the storage a message's parts are carved from — chain links,
// signature bytes, payload encodings and signer lists — so that building or
// decoding k messages is not k allocations of each. It belongs to one
// goroutine: under sim.Engine.Run every node of a run shares the engine's,
// a TCP mesh peer uses its own processor's, and a context built by
// sim.NewContext has its own.
//
// Lifetime: a block that runs out is dropped, never rewritten, so whatever
// was carved stays valid for as long as anything references it — across
// phases, and across the instances a warm engine runs — with one exception:
// links handed back with Rewind, which their owner does inside the Step that
// decoded them. Race builds overwrite handed-back links, so a chain kept past
// its Rewind fails there. The zero value is ready to use.
type Slab struct {
	links      Blocks[Link]
	bytes      Blocks[byte]
	procs      Blocks[ident.ProcID]
	signerScan []ident.ProcID // SignerScratch's one buffer
}

// A slab's blocks double from their first size to their cap: a
// five-processor run carves from a few hundred bytes of each kind, a large
// one allocates once per thousands of links, bytes or identities, and what
// one kept chain pins stays bounded.
const (
	linkBlockMin, linkBlockMax = 8, 512
	byteBlockMin, byteBlockMax = 128, 16 << 10
	procBlockMin, procBlockMax = 32, 4096
)

// NewSlab returns a slab whose first blocks are sized for a run of n
// processors — n links, n identities and 32 bytes a processor, at least the
// sizes a zero slab starts with — so that a cold run of a few hundred
// processors starts one block of each kind instead of doubling up to the
// caps. The zero Slab carves like NewSlab(0).
func NewSlab(n int) Slab {
	return Slab{
		links: NewBlocks[Link](max(linkBlockMin, n), linkBlockMax),
		bytes: NewBlocks[byte](max(byteBlockMin, 32*n), byteBlockMax),
		procs: NewBlocks[ident.ProcID](max(procBlockMin, n), procBlockMax),
	}
}

// ready gives a zero slab its blocks, so the zero Slab is ready to use.
func (s *Slab) ready() {
	if s.links.max == 0 {
		z := NewSlab(0)
		s.links, s.bytes, s.procs = z.links, z.bytes, z.procs
	}
}

// minLinkLen is the shortest encoding of a link: a one-byte signer and the
// length prefix of an empty signature.
const minLinkLen = 2

// sigRoom is what a signature is given to be appended into: the longest any
// scheme here produces (Ed25519's 64 bytes).
const sigRoom = 64

// poisonedLink is what a link handed back by Rewind reads in race builds: no
// scheme verifies it.
var poisonedLink = Link{Signer: ident.None}

// Mark returns the link position, for Rewind.
func (s *Slab) Mark() int { return s.links.Mark() }

// Rewind hands back the links of every chain decoded since mark was taken, to
// be carved again: the caller has dropped those chains, and does so in the
// Step that decoded them, before anything else carves from the slab (see
// Blocks.Rewind).
func (s *Slab) Rewind(mark int) { s.links.Rewind(mark, poisonedLink) }

// Writer returns a writer over n carved bytes: an encoder that passes its
// exact EncodedLen writes its payload in place. Past n the writer grows onto
// the heap, which costs an allocation and nothing else.
func (s *Slab) Writer(n int) wire.Writer {
	s.ready()
	return wire.WriterOn(s.bytes.Carve(n)[:0])
}

// sign returns signer's signature over msg in carved bytes: it is appended
// into sigRoom of them, and what it leaves unused is handed back.
func (s *Slab) sign(signer Signer, msg []byte) []byte {
	out := signer.AppendSign(s.bytes.Carve(sigRoom)[:0], msg)
	used := len(out)
	if used > sigRoom {
		used = 0 // the signer outgrew the room: out is its own allocation
	}
	s.bytes.Rewind(s.bytes.Mark()-sigRoom+used, 0)
	return out[:len(out):len(out)]
}

// Append extends the chain with a signature by signer over body: the
// returned chain's links and signature are carved, and c is not modified.
func (s *Slab) Append(signer Signer, body []byte, c Chain) Chain {
	s.ready()
	out := append(s.links.Carve(len(c) + 1)[:0], c...)
	w := inputs.Get().(*wire.Writer)
	defer inputs.Put(w)
	return append(out, Link{Signer: signer.ID(), Sig: s.sign(signer, signingInput(w, body, out))})
}

// SignValue signs value v as the first link of a fresh chain.
func (s *Slab) SignValue(signer Signer, v ident.Value) SignedValue {
	return SignedValue{Value: v, Chain: s.Append(signer, ValueBody(v), nil)}
}

// CoSign returns a copy of sv with signer's signature appended.
func (s *Slab) CoSign(signer Signer, sv SignedValue) SignedValue {
	return SignedValue{Value: sv.Value, Chain: s.Append(signer, ValueBody(sv.Value), sv.Chain)}
}

// SignBytes signs body as the first link of a fresh chain.
func (s *Slab) SignBytes(signer Signer, body []byte) SignedBytes {
	return SignedBytes{Body: body, Chain: s.Append(signer, body, nil)}
}

// Marshal returns the standalone canonical encoding of sv.
func (s *Slab) Marshal(sv SignedValue) []byte {
	w := s.Writer(sv.EncodedLen())
	sv.Encode(&w)
	return w.Bytes()
}

// EncodeTagged returns the payload tag followed by the encoding of sv — the
// message shape of Algorithms 3 and 5.
func (s *Slab) EncodeTagged(tag byte, sv SignedValue) []byte {
	w := s.Writer(1 + sv.EncodedLen())
	w.Byte(tag)
	sv.Encode(&w)
	return w.Bytes()
}

// Unmarshal decodes a standalone encoding produced by Marshal, its chain
// carved from s (see DecodeChain).
func (s *Slab) Unmarshal(b []byte) (SignedValue, error) {
	r := wire.NewReader(b)
	sv := DecodeSignedValue(r, s)
	if err := r.Finish(); err != nil {
		return SignedValue{}, err
	}
	return sv, nil
}

// SignerScratch returns an empty slice with room for n identities, in which
// the caller collects the signers of a payload before handing the slice to
// InternSigners: the slab's one scratch buffer.
func (s *Slab) SignerScratch(n int) []ident.ProcID {
	if cap(s.signerScan) < n {
		s.signerScan = make([]ident.ProcID, 0, max(n, procBlockMin))
	}
	return s.signerScan[:0]
}

// InternSigners sorts ids, drops duplicates and returns the list in carved
// storage nobody writes to again — the form sim.Context.Send takes it in. ids
// itself is consumed: it came from SignerScratch, and goes back to being the
// scratch.
func (s *Slab) InternSigners(ids []ident.ProcID) []ident.ProcID {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	s.signerScan = ids[:0]
	out := s.Procs(len(ids))
	copy(out, ids)
	return out
}

// Procs returns n carved identities for the caller to fill in.
func (s *Slab) Procs(n int) []ident.ProcID {
	s.ready()
	return s.procs.Carve(n)
}
