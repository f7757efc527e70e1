package coloring

// Native fuzzers for the color search behind every color decision.
// Sweep.SmallestValid/SmallestValidMultiple are the single shared Lemma 1
// and Lemma 2 search of every engine; a wrong answer here silently
// corrupts schedules everywhere, so the fuzzers check each answer against
// an exhaustive oracle and against the sorted sweep, and pin the
// order-insensitivity the engines rely on.

import (
	"math"
	"testing"

	"dtm/internal/graph"
)

// decodeIntervals derives a bounded forbidden-interval set from raw fuzz
// bytes: up to 32 intervals of two bytes each. The first byte puts Lo in
// [-64, 191]. The second byte's top two bits pick the interval's shape and
// its low six bits, x, its size, so the bitmap's edges are all reachable:
//
//	00  Hi = Lo + x        at most one word
//	01  Hi = Lo + 65x      up to 64 words, crossing word ends at every phase
//	10  Hi = Lo − 1 − x    empty
//	11  Hi = Lo + 2049x    up to ~2^17 colors: near or above maxMass, where
//	                       the search takes the sorted path
func decodeIntervals(data []byte) []Interval {
	n := len(data) / 2
	if n > 32 {
		n = 32
	}
	forb := make([]Interval, 0, n)
	for i := 0; i < n; i++ {
		lo := Color(int64(data[2*i])) - 64
		x := Color(data[2*i+1] & 63)
		var hi Color
		switch data[2*i+1] >> 6 {
		case 0:
			hi = lo + x
		case 1:
			hi = lo + 65*x
		case 2:
			hi = lo - 1 - x
		case 3:
			hi = lo + 2049*x
		}
		forb = append(forb, Interval{Lo: lo, Hi: hi})
	}
	return forb
}

// forbidden reports whether c lies in any of the intervals.
func forbidden(c Color, forb []Interval) bool {
	for _, f := range forb {
		if f.Lo <= c && c <= f.Hi {
			return true
		}
	}
	return false
}

// shuffled returns a deterministic permutation of forb derived from seed
// (fuzzing must not consult the global rand: determinism is the point).
func shuffled(forb []Interval, seed uint64) []Interval {
	out := append([]Interval(nil), forb...)
	for i := len(out) - 1; i > 0; i-- {
		seed = seed*6364136223846793005 + 1442695040888963407
		j := int(seed>>33) % (i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func FuzzSmallestValid(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{64, 5, 70, 3, 80, 0})
	f.Add([]byte{0, 15, 16, 15, 32, 15, 48, 15})
	f.Add([]byte{64, 0, 65, 0, 66, 0, 67, 0})
	f.Add([]byte{64, 64 | 10, 100, 64 | 63, 70, 64 | 1})   // several words
	f.Add([]byte{64, 128 | 5, 66, 0, 65, 128})             // empty intervals
	f.Add([]byte{64, 192 | 31, 0, 192 | 1, 255, 0})        // mass just under maxMass
	f.Add([]byte{64, 192 | 40, 200, 192 | 3, 250, 64 | 9}) // mass above maxMass
	// One Sweep serves every input, as each engine reuses its own.
	var sw Sweep
	f.Fuzz(func(t *testing.T, data []byte) {
		forb := decodeIntervals(data)
		c := sw.SmallestValid(append([]Interval(nil), forb...))
		if c < 0 {
			t.Fatalf("SmallestValid returned negative color %d", c)
		}
		if forbidden(c, forb) {
			t.Fatalf("SmallestValid returned forbidden color %d for %v", c, forb)
		}
		// Minimality: every valid non-negative color is >= c. The candidate
		// set {0} ∪ {Hi+1} covers every possible smaller answer.
		for _, cand := range append([]Color{0}, candidates(forb)...) {
			if cand >= 0 && cand < c && !forbidden(cand, forb) {
				t.Fatalf("SmallestValid returned %d but %d is valid and smaller (forb %v)", c, cand, forb)
			}
		}
		if ref := sortedSmallest(append([]Interval(nil), forb...)); ref != c {
			t.Fatalf("SmallestValid returned %d, the sorted sweep %d (forb %v)", c, ref, forb)
		}
		// Order-insensitivity: a shuffled copy must give the same color.
		if c2 := sw.SmallestValid(shuffled(forb, uint64(len(data))*2654435761+1)); c2 != c {
			t.Fatalf("SmallestValid is order-sensitive: %d vs %d for %v", c, c2, forb)
		}
		// Forbid round-trip: intervals built by Forbid from (cu, w) pairs
		// must forbid exactly the colors within w-1 of cu.
		for _, fi := range forb {
			w := graph.Weight(fi.Hi-fi.Lo)/2 + 1
			cu := fi.Lo + Color(w) - 1
			fb := Forbid(cu, w)
			if fb.Lo != cu-Color(w)+1 || fb.Hi != cu+Color(w)-1 {
				t.Fatalf("Forbid(%d, %d) = %+v", cu, w, fb)
			}
		}
	})
}

// candidates returns the one-past-each-interval candidate colors.
func candidates(forb []Interval) []Color {
	out := make([]Color, 0, len(forb))
	for _, f := range forb {
		out = append(out, f.Hi+1)
	}
	return out
}

func FuzzSmallestValidMultiple(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{64, 5, 70, 3}, uint8(3))
	f.Add([]byte{0, 15, 16, 15, 32, 15}, uint8(7))
	f.Add([]byte{64, 64 | 10, 100, 64 | 63, 70, 64 | 1}, uint8(4))
	f.Add([]byte{64, 128 | 5, 68, 0, 65, 128}, uint8(2))
	f.Add([]byte{64, 192 | 31, 0, 192 | 1}, uint8(0))
	f.Add([]byte{64, 192 | 40, 200, 192 | 3, 250, 64 | 9}, uint8(0))
	f.Add([]byte{64, 192 | 63, 66, 0}, uint8(15))
	var sw Sweep
	f.Fuzz(func(t *testing.T, data []byte, betaRaw uint8) {
		beta := graph.Weight(betaRaw%16) + 1
		forb := decodeIntervals(data)
		c := sw.SmallestValidMultiple(append([]Interval(nil), forb...), beta)
		if c < Color(beta) {
			t.Fatalf("SmallestValidMultiple returned %d < beta %d", c, beta)
		}
		if c%Color(beta) != 0 {
			t.Fatalf("SmallestValidMultiple returned %d, not a multiple of %d", c, beta)
		}
		if forbidden(c, forb) {
			t.Fatalf("SmallestValidMultiple returned forbidden color %d for %v", c, forb)
		}
		// Minimality over the multiples of beta below c.
		for cand := Color(beta); cand < c; cand += Color(beta) {
			if !forbidden(cand, forb) {
				t.Fatalf("SmallestValidMultiple returned %d but multiple %d is valid (beta %d, forb %v)",
					c, cand, beta, forb)
			}
		}
		ks := append([]Interval(nil), forb...)
		multiples(ks, beta)
		if ref := Color(beta) * (sortedSmallest(ks) + 1); ref != c {
			t.Fatalf("SmallestValidMultiple returned %d, the sorted sweep %d (beta %d, forb %v)", c, ref, beta, forb)
		}
		if c2 := sw.SmallestValidMultiple(shuffled(forb, uint64(betaRaw)*0x9e3779b97f4a7c15+uint64(len(data))), beta); c2 != c {
			t.Fatalf("SmallestValidMultiple is order-sensitive: %d vs %d", c, c2)
		}
	})
}

// TestForbMassCap pins the cap between the bitmap and the sorted sweep:
// a mass of maxMass still takes the bitmap, one more color takes the
// sorted path, and no interval ends make the sum overflow.
func TestForbMassCap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		forb   []Interval
		mass   Color
		bitmap bool
		want   Color
	}{
		{"empty and negative count 0", []Interval{{5, 4}, {-9, -1}, {3, 3}}, 1, true, 0},
		{"clipped at 0", []Interval{{-9, 2}}, 3, true, 3},
		{"at the cap", []Interval{{0, maxMass - 1}}, maxMass, true, maxMass},
		{"at the cap in two", []Interval{{0, 99}, {100, maxMass - 1}}, maxMass, true, maxMass},
		{"one past the cap", []Interval{{0, maxMass}}, 0, false, maxMass + 1},
		{"one past in two", []Interval{{0, 99}, {100, maxMass}}, 0, false, maxMass + 1},
		{"overlap past the cap", []Interval{{0, maxMass / 2}, {1, maxMass / 2}, {2, 7}}, 0, false, maxMass/2 + 1},
		{"full range", []Interval{{math.MinInt64, math.MaxInt64 - 1}}, 0, false, math.MaxInt64},
		{"far above", []Interval{{1 << 40, 1<<40 + 2*maxMass}, {0, 9}}, 0, false, 10},
	} {
		mass, ok := forbMass(tc.forb)
		if ok != tc.bitmap || (ok && mass != tc.mass) {
			t.Errorf("%s: forbMass = %d, %v; want %d, %v", tc.name, mass, ok, tc.mass, tc.bitmap)
		}
		var sw Sweep
		if c := sw.SmallestValid(append([]Interval(nil), tc.forb...)); c != tc.want {
			t.Errorf("%s: SmallestValid = %d, want %d", tc.name, c, tc.want)
		}
	}
}
