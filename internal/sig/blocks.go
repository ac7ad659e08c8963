package sig

// Blocks carves values of one kind — a slab's links, bytes and identities, a
// run's nodes, a mesh peer's inbound payloads — from blocks it allocates: a
// first block of the size it was made with, then each twice the last, up to
// its cap. A block that runs out is dropped and never written again, so what
// was carved stays valid for as long as anything references it; only what
// the owner hands back with Rewind is carved again. A carve that fits neither
// the next block nor the cap gets a block of its own, and the current block
// carries on. Carved values are zero, except where Rewind handed them back.
// The zero Blocks gives every carve a block of its own.
type Blocks[T any] struct {
	block []T // the current block; block[:used] is carved
	used  int
	next  int // the next block's size
	max   int // the cap later blocks double up to
}

// NewBlocks returns blocks whose first holds first values and whose later
// ones double up to max.
func NewBlocks[T any](first, max int) Blocks[T] { return Blocks[T]{next: first, max: max} }

// Carve returns k values, with capacity k so that appending to them never
// reaches a neighbour.
func (b *Blocks[T]) Carve(k int) []T {
	if k > len(b.block)-b.used {
		size := b.next
		if k > size {
			if k > b.max {
				return make([]T, k)
			}
			size = k
		}
		b.block, b.used = make([]T, size), 0
		b.next = min(2*size, b.max)
	}
	out := b.block[b.used : b.used+k : b.used+k]
	b.used += k
	return out
}

// Mark returns the carve position, for Rewind.
func (b *Blocks[T]) Mark() int { return b.used }

// Rewind hands back every value carved since mark was taken, to be carved
// again: the owner has dropped them. Race builds overwrite them with poison
// at once (Recycle), so a value kept past its Rewind shows. When a new block
// was started in between, the position counts into that block; whatever of
// it lies past mark was still carved after mark, so this only hands back
// less.
func (b *Blocks[T]) Rewind(mark int, poison T) {
	if mark < b.used {
		if Poison {
			Recycle(b.block[mark:b.used], poison)
		}
		b.used = mark
	}
}

// Recycle readies slots that are to be reused: zeroed, so what they held can
// be collected, or in race builds (Poison) each overwritten with poison — a
// value its owner chooses to read as no processor's — so a value kept past
// its reuse fails the race-enabled suite.
func Recycle[T any](slots []T, poison T) {
	if !Poison {
		clear(slots)
		return
	}
	for i := range slots {
		slots[i] = poison
	}
}

// Poisoned is what a recycled signed payload reads in race builds: one link
// signed by ident.None, so it fails to verify.
var Poisoned = SignedBytes{Chain: Chain{poisonedLink}}
