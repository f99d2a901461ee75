package eq

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/value"
)

// ScopedVar is a variable qualified by the query instance that owns it.
// Kramer's fno and Jerry's fno are distinct ScopedVars until unification
// merges them (Figure 1b of the paper).
type ScopedVar struct {
	QID  uint64
	Name string
}

func (v ScopedVar) String() string { return fmt.Sprintf("q%d.%s", v.QID, v.Name) }

// Subst is a substitution: a union-find over scoped variables where each
// equivalence class may be bound to one constant. It is the "θ" of the
// matching algorithm.
//
// Every mutation of the union-find (Bind, Union, and Find's path
// compression) is recorded on a trail, so a caller can take a Mark, attempt
// a unification that may fail partway, and Undo back to the exact prior
// state. This is what lets the matcher explore backtracking branches by
// mutate-and-undo instead of cloning the substitution per branch.
type Subst struct {
	parent map[ScopedVar]ScopedVar
	val    map[ScopedVar]value.Value // root → constant binding
	trail  []trailEntry
}

// trailEntry records one map mutation so Undo can reverse it exactly.
type trailEntry struct {
	key       ScopedVar
	oldParent ScopedVar   // valid for kind == trailParent && had
	oldVal    value.Value // valid for kind == trailVal && had
	kind      uint8
	had       bool // whether key was present before the write
}

const (
	trailParent uint8 = iota // parent[key] was written or deleted
	trailVal                 // val[key] was written or deleted
)

// NewSubst returns an empty substitution.
func NewSubst() *Subst {
	return &Subst{parent: make(map[ScopedVar]ScopedVar), val: make(map[ScopedVar]value.Value)}
}

// Clone deep-copies the substitution. The clone's trail starts empty: marks
// taken on the original do not apply to it. The matcher no longer clones per
// branch (it uses Mark/Undo); Clone remains for snapshots and tests.
func (s *Subst) Clone() *Subst {
	c := &Subst{
		parent: make(map[ScopedVar]ScopedVar, len(s.parent)),
		val:    make(map[ScopedVar]value.Value, len(s.val)),
	}
	for k, v := range s.parent {
		c.parent[k] = v
	}
	for k, v := range s.val {
		c.val[k] = v
	}
	return c
}

// Reset empties the substitution in place, retaining the map and trail
// storage for reuse — the matcher keeps one Subst per coordination lane and
// resets it per search instead of allocating.
func (s *Subst) Reset() {
	clear(s.parent)
	clear(s.val)
	s.trail = s.trail[:0]
}

// Mark returns a checkpoint of the trail; Undo(mark) rewinds every mutation
// made since.
func (s *Subst) Mark() int { return len(s.trail) }

// Undo reverses, newest first, every trailed mutation made after mark,
// restoring parent and val to exactly the state they had when Mark was
// called — including path-compression writes, so a compression that pointed
// a variable at a root created by a later-undone Union is rolled back too.
func (s *Subst) Undo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		e := &s.trail[i]
		switch e.kind {
		case trailParent:
			if e.had {
				s.parent[e.key] = e.oldParent
			} else {
				delete(s.parent, e.key)
			}
		case trailVal:
			if e.had {
				s.val[e.key] = e.oldVal
			} else {
				delete(s.val, e.key)
			}
		}
	}
	s.trail = s.trail[:mark]
}

// setParent writes parent[v] = p, trailing the old entry.
func (s *Subst) setParent(v, p ScopedVar) {
	old, had := s.parent[v]
	s.trail = append(s.trail, trailEntry{key: v, oldParent: old, kind: trailParent, had: had})
	s.parent[v] = p
}

// setVal writes val[v] = c, trailing the old entry.
func (s *Subst) setVal(v ScopedVar, c value.Value) {
	old, had := s.val[v]
	s.trail = append(s.trail, trailEntry{key: v, oldVal: old, kind: trailVal, had: had})
	s.val[v] = c
}

// delVal deletes val[v], trailing the old entry.
func (s *Subst) delVal(v ScopedVar) {
	old, had := s.val[v]
	if !had {
		return
	}
	s.trail = append(s.trail, trailEntry{key: v, oldVal: old, kind: trailVal, had: true})
	delete(s.val, v)
}

// Find returns the representative of v's equivalence class. It is iterative
// (adversarial unify orders can build long parent chains that would deepen
// the stack of the old recursive version): a first pass walks to the root, a
// second compresses the path. Compression writes go on the trail like any
// other mutation; chains of length ≤ 1 — the steady state — write nothing.
func (s *Subst) Find(v ScopedVar) ScopedVar {
	root, ok := s.parent[v]
	if !ok {
		return v
	}
	for {
		p, ok := s.parent[root]
		if !ok {
			break
		}
		root = p
	}
	for v != root {
		p := s.parent[v]
		if p != root {
			s.setParent(v, root)
		}
		v = p
	}
	return root
}

// Binding returns the constant bound to v's class, if any.
func (s *Subst) Binding(v ScopedVar) (value.Value, bool) {
	c, ok := s.val[s.Find(v)]
	return c, ok
}

// Bind constrains v's class to the constant c. It fails if the class is
// already bound to a different constant.
func (s *Subst) Bind(v ScopedVar, c value.Value) bool {
	root := s.Find(v)
	if cur, ok := s.val[root]; ok {
		return cur.Identical(c)
	}
	s.setVal(root, c)
	return true
}

// Union merges the classes of a and b. It fails when both classes are bound
// to different constants.
func (s *Subst) Union(a, b ScopedVar) bool {
	ra, rb := s.Find(a), s.Find(b)
	if ra == rb {
		return true
	}
	va, oka := s.val[ra]
	vb, okb := s.val[rb]
	if oka && okb && !va.Identical(vb) {
		return false
	}
	// Merge rb into ra (deterministic by map insertion is fine; smaller
	// graphs here than union-by-rank matters for).
	s.setParent(rb, ra)
	if !oka && okb {
		s.setVal(ra, vb)
	}
	s.delVal(rb)
	return true
}

// UnifyAtoms unifies constraint atom a (of query aQID) with head atom b (of
// query bQID), updating s in place. It returns false — possibly after partial
// mutation — on clash; callers bracket the call with Mark/Undo (or clone) to
// rewind, which makes the partial mutation harmless.
func UnifyAtoms(s *Subst, aQID uint64, a Atom, bQID uint64, b Atom) bool {
	if a.Relation != b.Relation || a.Arity() != b.Arity() {
		return false
	}
	for i := range a.Terms {
		ta, tb := a.Terms[i], b.Terms[i]
		switch {
		case !ta.IsVar && !tb.IsVar:
			if !ta.Const.Identical(tb.Const) {
				return false
			}
		case ta.IsVar && !tb.IsVar:
			if !s.Bind(ScopedVar{aQID, ta.Var}, tb.Const) {
				return false
			}
		case !ta.IsVar && tb.IsVar:
			if !s.Bind(ScopedVar{bQID, tb.Var}, ta.Const) {
				return false
			}
		default:
			if !s.Union(ScopedVar{aQID, ta.Var}, ScopedVar{bQID, tb.Var}) {
				return false
			}
		}
	}
	return true
}

// UnifyGround unifies atom a (of query aQID) against a ground tuple already
// present in an answer relation.
func UnifyGround(s *Subst, aQID uint64, a Atom, tup value.Tuple) bool {
	if a.Arity() != len(tup) {
		return false
	}
	for i, t := range a.Terms {
		if t.IsVar {
			if !s.Bind(ScopedVar{aQID, t.Var}, tup[i]) {
				return false
			}
		} else if !t.Const.Identical(tup[i]) {
			return false
		}
	}
	return true
}

// Resolve instantiates atom a of query qid under the substitution: variables
// bound to constants are replaced; unbound variables remain.
func (s *Subst) Resolve(qid uint64, a Atom) Atom {
	return s.ResolveInto(make([]Term, 0, len(a.Terms)), qid, a)
}

// ResolveInto is Resolve writing the instantiated terms into dst (reused
// from length 0), so a caller resolving at every search node can keep one
// terms buffer per backtracking depth instead of allocating.
func (s *Subst) ResolveInto(dst []Term, qid uint64, a Atom) Atom {
	dst = dst[:0]
	for _, t := range a.Terms {
		if t.IsVar {
			if c, ok := s.Binding(ScopedVar{qid, t.Var}); ok {
				dst = append(dst, ConstTerm(c))
				continue
			}
		}
		dst = append(dst, t)
	}
	return Atom{Relation: a.Relation, Display: a.Display, Terms: dst}
}

// Classes groups the given scoped variables into their current equivalence
// classes, returning for each class its members (sorted for determinism) and
// bound constant if any.
func (s *Subst) Classes(vars []ScopedVar) []Class {
	out := make([]Class, 0, len(vars))
	for _, v := range vars {
		r := s.Find(v)
		idx := -1
		for i := range out {
			if out[i].Root == r {
				idx = i
				break
			}
		}
		if idx < 0 {
			c := Class{Root: r}
			if val, ok := s.val[r]; ok {
				c.Const = val
				c.Bound = true
			}
			out = append(out, c)
			idx = len(out) - 1
		}
		out[idx].Members = append(out[idx].Members, v)
	}
	varLess := func(a, b ScopedVar) int {
		if a.QID != b.QID {
			if a.QID < b.QID {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Name, b.Name)
	}
	for i := range out {
		slices.SortFunc(out[i].Members, varLess)
	}
	slices.SortFunc(out, func(a, b Class) int { return varLess(a.Members[0], b.Members[0]) })
	return out
}

// Class is one variable equivalence class under a substitution.
type Class struct {
	Root    ScopedVar
	Members []ScopedVar
	Const   value.Value
	Bound   bool
}

func (c Class) String() string {
	names := make([]string, len(c.Members))
	for i, m := range c.Members {
		names[i] = m.String()
	}
	s := "{" + strings.Join(names, " = ") + "}"
	if c.Bound {
		s += " = " + c.Const.String()
	}
	return s
}
