// Package difftest is the differential harness the door-equivalence tests
// share: one seeded op-log generator (Gen), one list of doors that replay a
// log (the methods of H) and one judge that compares what the doors answer
// at every Check op. Only _test.go files import it.
//
// A failure names the seed and the op index; Gen with the same seed and
// Shape rebuilds the log that produced it.
package difftest

import (
	"fmt"
	"math/rand"

	"ecmsketch"
)

type (
	// Tick is the stream clock.
	Tick = ecmsketch.Tick
	// Event is one arrival.
	Event = ecmsketch.Event
)

// Kind names what an op does.
type Kind uint8

const (
	OpBatch   Kind = iota // Events reach the op's site (one AddBatch, or AddNs; see Mode)
	OpString              // one arrival of Str at Events[0].Tick through AddString
	OpAdvance             // the op's site advances to Tick
	OpFlush               // Async engines drain; durable engines checkpoint
	OpCrash               // durable engines crash and recover
	OpPull                // coordinators refresh; delta pullers pull
	OpCheck               // the judge compares every door
)

// Op is one step of a log.
type Op struct {
	Kind   Kind
	Site   int // the site a write or advance goes to
	Events []Event
	Str    string
	Tick   Tick
}

// Shape sizes a log. Every test picks constant shapes.
type Shape struct {
	Window Tick    // the doors' window
	Events int     // arrivals in the log
	Ticks  Tick    // ticks the arrivals spread over, evenly (Rules jumps come on top)
	Sites  int     // sites the arrivals go to, site 0 taking a double share; 0 means 1
	Keys   uint64  // key domain
	Zipf   float64 // key skew s > 1; 0 draws keys uniformly
	Batch  int     // arrivals per write op; under Rules, 1 to Batch at random
	Pulls  int     // Pull points, evenly spaced (every Check is a Pull too)
	Checks int     // Check points, evenly spaced; the last closes the log
	// Rules mixes in every corner of the write rule (see ecmsketch.Event):
	// tick 0, ticks behind the clock by up to one and a half windows, N == 0,
	// string keys, advances ahead of the arrivals that follow, a jump past
	// two windows, Flush ops and two crash points.
	Rules bool
	// Deep, when set, makes every other write op of a site Deep arrivals
	// long; the string and advance ops that fall inside it follow it rather
	// than cut it short. A Pull or Check point still closes it.
	Deep int
}

// Log is a replayable op sequence.
type Log struct {
	Seed  int64
	Shape Shape
	Ops   []Op
	Keys  []uint64 // the keys the judge asks about
}

// Gen builds the log of seed and shape; it is a pure function of the two.
func Gen(seed int64, s Shape) Log {
	sites := max(s.Sites, 1)
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if s.Zipf > 1 {
		zipf = rand.NewZipf(rng, s.Zipf, 1, s.Keys-1)
	}
	key := func() uint64 {
		if zipf != nil {
			return zipf.Uint64()
		}
		return rng.Uint64() % s.Keys
	}
	l := Log{Seed: seed, Shape: s}
	for k := uint64(0); k < min(s.Keys, 48); k++ {
		l.Keys = append(l.Keys, k)
	}
	l.Keys = append(l.Keys, ecmsketch.KeyString("k1"), ecmsketch.KeyString("never-seen"))
	batch := max(s.Batch, 1)
	pending := make([][]Event, sites)
	held := make([][]Op, sites) // ops that follow a deep batch
	size := make([]int, sites)
	deep := make([]bool, sites)
	resize := func(i int) {
		size[i] = batch
		if s.Rules {
			size[i] = 1 + rng.Intn(batch)
		}
		if s.Deep > 0 {
			deep[i] = !deep[i]
			if deep[i] {
				size[i] = s.Deep
			}
		}
	}
	emit := func(i int) {
		if len(pending[i]) > 0 {
			l.Ops = append(l.Ops, Op{Kind: OpBatch, Site: i, Events: pending[i]})
			pending[i] = nil
		}
		l.Ops = append(l.Ops, held[i]...)
		held[i] = nil
		resize(i)
	}
	// follow appends op after site's pending batch: at once, closing the
	// batch, unless the batch is deep.
	follow := func(site int, op Op) {
		if deep[site] {
			held[site] = append(held[site], op)
			return
		}
		emit(site)
		l.Ops = append(l.Ops, op)
	}
	for i := range size {
		resize(i)
	}
	every := func(i, n int) bool { return n > 0 && (i+1)%max(s.Events/n, 1) == 0 }
	var jump Tick
	for i := 0; i < s.Events; i++ {
		tick := jump + 1 + Tick(uint64(i)*uint64(s.Ticks)/uint64(s.Events))
		site := i % (sites + 1)
		if site == sites {
			site = 0
		}
		ev := Event{Key: key(), Tick: tick}
		if s.Rules {
			ev.N = uint64(rng.Intn(4))
			switch rng.Intn(16) {
			case 0:
				ev.Tick = 0
			case 1:
				ev.Tick -= min(ev.Tick, Tick(rng.Int63n(int64(s.Window+s.Window/2)+1)))
			case 2:
				str := fmt.Sprintf("k%d", ev.Key%4)
				follow(site, Op{Kind: OpString, Site: site, Str: str,
					Events: []Event{{Key: ecmsketch.KeyString(str), Tick: ev.Tick, N: 1}}})
				continue
			case 3:
				follow(site, Op{Kind: OpAdvance, Site: site, Tick: tick + 30})
			}
			switch i {
			case s.Events * 2 / 5:
				jump += 2*s.Window + 1
			case s.Events / 3, s.Events * 5 / 6:
				l.Ops = append(l.Ops, Op{Kind: OpCrash})
			}
			if every(i, 6) {
				l.Ops = append(l.Ops, Op{Kind: OpFlush})
			}
		}
		pending[site] = append(pending[site], ev)
		if len(pending[site]) >= size[site] {
			emit(site)
		}
		check := every(i, s.Checks) || i == s.Events-1
		if check || every(i, s.Pulls) {
			for j := range pending {
				emit(j)
			}
			l.Ops = append(l.Ops, Op{Kind: OpPull})
		}
		if check {
			l.Ops = append(l.Ops, Op{Kind: OpCheck})
		}
	}
	return l
}
