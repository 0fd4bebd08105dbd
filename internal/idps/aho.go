// Package idps implements the intrusion detection and prevention function
// EndBox runs as a Click element (paper §V-B): Snort-compatible rules whose
// content patterns are matched with the Aho–Corasick algorithm — the string
// matching algorithm Snort itself uses and the paper cites [41].
//
// The package provides three layers: a reusable Aho–Corasick automaton
// (this file), a parser for the Snort rule subset the evaluation needs
// (rule.go), and an engine that evaluates packets against a compiled rule
// set (engine.go). A deterministic generator reproduces a rule set of the
// same scale as the paper's 377-rule Snort community subset (gen.go).
package idps

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Match reports one pattern occurrence found by the automaton.
type Match struct {
	// PatternID is the identifier supplied when the pattern was added.
	PatternID int
	// End is the byte offset just past the occurrence in the input.
	End int
}

// Automaton is an Aho–Corasick string matching automaton. Build it once
// with NewAutomaton, then call Scan on every packet; matching cost is
// linear in the input regardless of pattern count, which is why the IDPS
// is CPU-bound rather than rule-bound (paper §V-E).
type Automaton struct {
	// class maps an input byte to its column. Bytes that occur in no
	// pattern share one column, and with case folding an upper-case ASCII
	// letter shares its lower-case letter's, so a scanned byte costs one
	// lookup and a row is as wide as the patterns' alphabet, not 256.
	class [256]uint8
	// next is the dense goto table, states<<shift entries: the row of
	// state s starts at s<<shift and holds, per class, the next state's
	// row offset (rows are padded to a power of two). State 0 is the root.
	next  []int32
	shift uint
	// Pattern IDs terminating at state s, its own before those inherited
	// over failure links, are outIDs[outOff[s]:outOff[s+1]].
	outOff []int32
	outIDs []int32
}

// Pattern is a byte string to search for, tagged with a caller-chosen ID.
type Pattern struct {
	ID int
	// Bytes is the raw pattern. Empty patterns are rejected.
	Bytes []byte
	// NoCase requests ASCII case-insensitive matching for this pattern.
	NoCase bool
}

// NewAutomaton constructs the automaton from the given patterns. When any
// pattern requests NoCase, the whole automaton folds case: patterns and
// input bytes are lowered before insertion/lookup, and case-sensitive
// patterns are verified against the original input by the caller layer
// (engine.go); for the automaton layer this simply means NoCase is
// per-automaton. For exact semantics per pattern, build two automata.
//
// Construction allocates a fixed number of arrays, none per state: the
// table is sized up front for the largest trie the patterns can form.
func NewAutomaton(patterns []Pattern, caseFold bool) (*Automaton, error) {
	a := &Automaton{}
	maxStates := 1
	ids := make([]int, len(patterns))
	var used [256]bool
	for i, p := range patterns {
		if len(p.Bytes) == 0 {
			return nil, fmt.Errorf("idps: empty pattern (id %d)", p.ID)
		}
		ids[i] = p.ID
		maxStates += len(p.Bytes)
		for _, b := range p.Bytes {
			used[fold(b, caseFold)] = true
		}
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("idps: duplicate pattern id %d", ids[i])
		}
	}

	// One class per distinct pattern byte, plus one shared by every byte
	// no pattern contains (if there is such a byte): at most 256.
	classes, other := 0, -1
	for b := 255; b >= 0; b-- {
		switch f := fold(byte(b), caseFold); {
		case int(f) != b:
			a.class[b] = a.class[f] // its lower-case letter, assigned already
		case used[b]:
			a.class[b] = uint8(classes)
			classes++
		default:
			if other < 0 {
				other = classes
				classes++
			}
			a.class[b] = uint8(other)
		}
	}
	a.shift = uint(bits.Len(uint(classes - 1)))
	if maxStates > math.MaxInt32>>a.shift {
		return nil, fmt.Errorf("idps: %d pattern bytes overflow the automaton table", maxStates-1)
	}

	// The trie goes straight into the table, which holds states as row
	// offsets (state<<shift) so a step is one add and one load. 0 means
	// "no edge" until the failure pass, because the root is never a child.
	a.next = make([]int32, maxStates<<a.shift)
	term := make([]int32, len(patterns)) // pattern index -> final state
	n := 1
	for i, p := range patterns {
		row := int32(0)
		for _, b := range p.Bytes {
			edge := &a.next[row+int32(a.class[b])]
			if *edge == 0 {
				*edge = int32(n << a.shift)
				n++
			}
			row = *edge
		}
		term[i] = row >> a.shift
	}
	a.next = a.next[:n<<a.shift]
	scratch := make([]int32, 3*n)
	fail, queue, pos := scratch[:n], scratch[n:n:2*n], scratch[2*n:]

	// Breadth-first over the class columns: a state's failure state is
	// shallower, so its row is already complete and missing edges copy
	// from it, collapsing goto-with-failure into O(1) per-byte stepping.
	// outOff[s+1] counts s's outputs, its own plus its failure state's.
	a.outOff = make([]int32, n+1)
	for _, s := range term {
		a.outOff[s+1]++
	}
	for _, row := range a.next[:classes] {
		if row != 0 {
			queue = append(queue, row)
		}
	}
	for head := 0; head < len(queue); head++ {
		row := a.next[queue[head]:]
		failRow := a.next[fail[queue[head]>>a.shift]:]
		for c := 0; c < classes; c++ {
			child := row[c]
			if child == 0 {
				row[c] = failRow[c]
				continue
			}
			fail[child>>a.shift] = failRow[c]
			a.outOff[child>>a.shift+1] += a.outOff[failRow[c]>>a.shift+1]
			queue = append(queue, child)
		}
	}
	for s := 0; s < n; s++ {
		if a.outOff[s+1] += a.outOff[s]; a.outOff[s+1] < 0 {
			return nil, fmt.Errorf("idps: more than %d pattern outputs", math.MaxInt32)
		}
	}
	a.outIDs = make([]int32, a.outOff[n])
	copy(pos, a.outOff)
	for i, s := range term {
		a.outIDs[pos[s]] = int32(patterns[i].ID)
		pos[s]++
	}
	for _, row := range queue {
		s, f := row>>a.shift, fail[row>>a.shift]>>a.shift
		copy(a.outIDs[pos[s]:], a.outIDs[a.outOff[f]:a.outOff[f+1]])
	}
	return a, nil
}

func fold(b byte, enabled bool) byte {
	if enabled && b >= 'A' && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}

// States returns the number of automaton states, a proxy for its memory
// footprint (relevant to EPC pressure inside the enclave).
func (a *Automaton) States() int { return len(a.outOff) - 1 }

// Scan finds all pattern occurrences in data. Matches are appended to dst
// (which may be nil) and returned, letting the data path reuse one slice.
func (a *Automaton) Scan(data []byte, dst []Match) []Match {
	row := int32(0)
	for i, b := range data {
		row = a.next[row+int32(a.class[b])]
		if s := row >> a.shift; a.outOff[s] != a.outOff[s+1] {
			for _, id := range a.outIDs[a.outOff[s]:a.outOff[s+1]] {
				dst = append(dst, Match{PatternID: int(id), End: i + 1})
			}
		}
	}
	return dst
}

// Contains reports whether any pattern occurs in data, without collecting
// matches — the fast path for drop/accept decisions.
func (a *Automaton) Contains(data []byte) bool {
	row := int32(0)
	for _, b := range data {
		row = a.next[row+int32(a.class[b])]
		if s := row >> a.shift; a.outOff[s] != a.outOff[s+1] {
			return true
		}
	}
	return false
}

// MatchedIDs returns the distinct pattern IDs occurring in data, sorted.
func (a *Automaton) MatchedIDs(data []byte) []int {
	var ids []int
	for _, m := range a.Scan(data, nil) {
		ids = append(ids, m.PatternID)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}
