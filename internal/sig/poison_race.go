//go:build race

package sig

// poisonRewound makes Slab.Rewind overwrite the links it hands back, so a
// chain kept past its Rewind reads a link no scheme verifies (signer
// ident.None, no signature) and the race-enabled suite fails on it.
const poisonRewound = true
