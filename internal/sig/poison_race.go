//go:build race

package sig

// Poison makes race builds overwrite storage handed back for reuse the moment
// it is handed back (Recycle): Slab.Rewind's links become links no scheme
// verifies (signer ident.None, no signature), and the engine's envelope
// blocks, a mesh peer's barrier slots and a reused Algorithm 4 group poison
// their slots in the same way, so a value kept past its reuse reads as no
// processor's and the race-enabled suite fails on it.
const Poison = true
