// Package types implements the data-type descriptor system used by MCR's
// static instrumentation. In the paper, an LLVM pass records relocation and
// data-type tags for every static object and allocation site; mutable
// tracing later consults those tags to walk pointers precisely and to apply
// on-the-fly type transformations between program versions. This package is
// the Go equivalent of that tag metadata: type descriptors with C-like
// layout rules (sizes, alignment, field offsets), per-version registries,
// pointer-slot enumeration, and opacity policies that decide when a memory
// area must be scanned conservatively instead.
package types

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the C-like type kinds understood by the tracer.
type Kind uint8

// Type kinds. UintPtr models C idioms that store pointer values in
// integer variables ("pointers as integers", §7 of the paper); the default
// opacity policy treats it conservatively.
const (
	KindInvalid Kind = iota
	KindInt8
	KindInt16
	KindInt32
	KindInt64
	KindUint8
	KindUint16
	KindUint32
	KindUint64
	KindUintPtr
	KindPtr
	KindFuncPtr
	KindStruct
	KindUnion
	KindArray
	KindOpaque // explicitly untyped memory (e.g. uninstrumented allocations)
)

var kindNames = map[Kind]string{
	KindInvalid: "invalid",
	KindInt8:    "int8",
	KindInt16:   "int16",
	KindInt32:   "int32",
	KindInt64:   "int64",
	KindUint8:   "uint8",
	KindUint16:  "uint16",
	KindUint32:  "uint32",
	KindUint64:  "uint64",
	KindUintPtr: "uintptr",
	KindPtr:     "ptr",
	KindFuncPtr: "funcptr",
	KindStruct:  "struct",
	KindUnion:   "union",
	KindArray:   "array",
	KindOpaque:  "opaque",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// WordSize is the size of a pointer/machine word in the simulated address
// space (the paper targets x86; we model the 64-bit variant, where
// conservative GC accuracy is known to be high, §6).
const WordSize = 8

// Field describes one member of a struct or union type.
type Field struct {
	Name   string
	Offset uint64
	Type   *Type
}

// Type is a data-type descriptor. Descriptors are immutable once
// constructed; registries hand out shared instances.
type Type struct {
	Name   string // empty for anonymous types
	Kind   Kind
	Size   uint64
	Align  uint64
	Fields []Field // KindStruct, KindUnion
	Elem   *Type   // KindPtr, KindArray
	Len    uint64  // KindArray
}

// IsInteger reports whether t is a (non-pointer-sized) integer scalar.
func (t *Type) IsInteger() bool {
	switch t.Kind {
	case KindInt8, KindInt16, KindInt32, KindInt64,
		KindUint8, KindUint16, KindUint32, KindUint64:
		return true
	}
	return false
}

// IsCharArray reports whether t is an array of 1-byte elements, the classic
// C "char buf[N]" idiom that the default policy scans conservatively.
func (t *Type) IsCharArray() bool {
	return t.Kind == KindArray && t.Elem != nil &&
		(t.Elem.Kind == KindInt8 || t.Elem.Kind == KindUint8)
}

// String renders a compact human-readable form of the type.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KindPtr:
		return "*" + t.Elem.String()
	case KindArray:
		return fmt.Sprintf("[%d]%s", t.Len, t.Elem.String())
	case KindStruct, KindUnion:
		if t.Name != "" {
			return t.Kind.String() + " " + t.Name
		}
		var b strings.Builder
		b.WriteString(t.Kind.String())
		b.WriteString("{")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s %s", f.Name, f.Type)
		}
		b.WriteString("}")
		return b.String()
	default:
		if t.Name != "" {
			return t.Name
		}
		return t.Kind.String()
	}
}

// FieldByName returns the field with the given name, or false.
func (t *Type) FieldByName(name string) (Field, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

func scalarSize(k Kind) uint64 {
	switch k {
	case KindInt8, KindUint8:
		return 1
	case KindInt16, KindUint16:
		return 2
	case KindInt32, KindUint32:
		return 4
	case KindInt64, KindUint64, KindUintPtr, KindPtr, KindFuncPtr:
		return 8
	}
	return 0
}

// Scalar returns the canonical descriptor for a scalar kind.
func Scalar(k Kind) *Type {
	t, ok := scalars[k]
	if !ok {
		panic(fmt.Sprintf("types: not a scalar kind: %v", k))
	}
	return t
}

var scalars = func() map[Kind]*Type {
	m := make(map[Kind]*Type)
	for _, k := range []Kind{
		KindInt8, KindInt16, KindInt32, KindInt64,
		KindUint8, KindUint16, KindUint32, KindUint64,
		KindUintPtr, KindFuncPtr,
	} {
		sz := scalarSize(k)
		m[k] = &Type{Kind: k, Size: sz, Align: sz}
	}
	return m
}()

// PointerTo returns a pointer descriptor with element type elem. A nil elem
// produces a "void*"-like pointer: still precise as a pointer slot, but the
// pointee is traced using the target object's own tag.
func PointerTo(elem *Type) *Type {
	return &Type{Kind: KindPtr, Size: WordSize, Align: WordSize, Elem: elem}
}

// ArrayOf returns an array descriptor of n elements of type elem.
func ArrayOf(n uint64, elem *Type) *Type {
	return &Type{
		Kind:  KindArray,
		Size:  n * elem.Size,
		Align: elem.Align,
		Elem:  elem,
		Len:   n,
	}
}

// Opaque returns an untyped blob descriptor of the given size, as produced
// for uninstrumented allocation sites.
func Opaque(size uint64) *Type {
	return &Type{Kind: KindOpaque, Size: size, Align: WordSize}
}

func align(off, a uint64) uint64 {
	if a == 0 {
		return off
	}
	return (off + a - 1) &^ (a - 1)
}

// StructOf computes C layout (offsets, size, alignment with tail padding)
// for the given ordered members and returns the struct descriptor.
func StructOf(name string, fields ...Field) *Type {
	t := &Type{Name: name, Kind: KindStruct}
	var off, maxAlign uint64
	t.Fields = make([]Field, len(fields))
	for i, f := range fields {
		if f.Type == nil {
			panic(fmt.Sprintf("types: struct %s field %s has nil type", name, f.Name))
		}
		a := f.Type.Align
		if a == 0 {
			a = 1
		}
		off = align(off, a)
		t.Fields[i] = Field{Name: f.Name, Offset: off, Type: f.Type}
		off += f.Type.Size
		if a > maxAlign {
			maxAlign = a
		}
	}
	if maxAlign == 0 {
		maxAlign = 1
	}
	t.Align = maxAlign
	t.Size = align(off, maxAlign)
	return t
}

// UnionOf computes C union layout: all members at offset 0; the union size
// is the maximum member size rounded to the maximum alignment.
func UnionOf(name string, fields ...Field) *Type {
	t := &Type{Name: name, Kind: KindUnion}
	var maxSize, maxAlign uint64
	t.Fields = make([]Field, len(fields))
	for i, f := range fields {
		if f.Type == nil {
			panic(fmt.Sprintf("types: union %s field %s has nil type", name, f.Name))
		}
		t.Fields[i] = Field{Name: f.Name, Offset: 0, Type: f.Type}
		if f.Type.Size > maxSize {
			maxSize = f.Type.Size
		}
		if f.Type.Align > maxAlign {
			maxAlign = f.Type.Align
		}
	}
	if maxAlign == 0 {
		maxAlign = 1
	}
	t.Align = maxAlign
	t.Size = align(maxSize, maxAlign)
	return t
}

// PtrSlot identifies one pointer-typed word inside a type, at a byte offset
// from the start of the enclosing object.
type PtrSlot struct {
	Offset uint64
	Elem   *Type // pointee type; nil for void*-like pointers
	Func   bool  // function pointer (never traced into data objects)
}

// OpaqueRange identifies a byte range inside a type that the policy says
// must be scanned conservatively rather than traced precisely.
type OpaqueRange struct {
	Offset uint64
	Size   uint64
}

// Layout is the flattened tracing view of a type under a given policy:
// where the precise pointer slots live and which ranges are opaque.
type Layout struct {
	Ptrs    []PtrSlot
	Opaques []OpaqueRange
}

// LayoutOf flattens t under policy p. Nested structs and arrays are
// expanded; unions, char arrays and pointer-sized integers become opaque
// ranges under the default policy, mirroring the run-time policies of §6.
func LayoutOf(t *Type, p Policy) Layout {
	var l Layout
	flatten(t, 0, p, &l)
	sort.Slice(l.Ptrs, func(i, j int) bool { return l.Ptrs[i].Offset < l.Ptrs[j].Offset })
	sort.Slice(l.Opaques, func(i, j int) bool { return l.Opaques[i].Offset < l.Opaques[j].Offset })
	l.Opaques = coalesce(l.Opaques)
	return l
}

func flatten(t *Type, base uint64, p Policy, l *Layout) {
	switch t.Kind {
	case KindPtr:
		l.Ptrs = append(l.Ptrs, PtrSlot{Offset: base, Elem: t.Elem})
	case KindFuncPtr:
		l.Ptrs = append(l.Ptrs, PtrSlot{Offset: base, Func: true})
	case KindUintPtr:
		if p.OpaquePtrSizedInts {
			l.Opaques = append(l.Opaques, OpaqueRange{Offset: base, Size: t.Size})
		}
	case KindUnion:
		if p.OpaqueUnions {
			l.Opaques = append(l.Opaques, OpaqueRange{Offset: base, Size: t.Size})
		} else if len(t.Fields) > 0 {
			// Non-conservative policies trace the first member only, the
			// best precise guess absent discriminant information.
			flatten(t.Fields[0].Type, base, p, l)
		}
	case KindStruct:
		for _, f := range t.Fields {
			flatten(f.Type, base+f.Offset, p, l)
		}
	case KindArray:
		if t.IsCharArray() {
			if p.OpaqueCharArrays {
				l.Opaques = append(l.Opaques, OpaqueRange{Offset: base, Size: t.Size})
			}
			return
		}
		for i := uint64(0); i < t.Len; i++ {
			flatten(t.Elem, base+i*t.Elem.Size, p, l)
		}
	case KindOpaque:
		l.Opaques = append(l.Opaques, OpaqueRange{Offset: base, Size: t.Size})
	}
}

func coalesce(rs []OpaqueRange) []OpaqueRange {
	if len(rs) == 0 {
		return rs
	}
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Offset <= last.Offset+last.Size {
			if end := r.Offset + r.Size; end > last.Offset+last.Size {
				last.Size = end - last.Offset
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// HasPreciseInfo reports whether, under policy p, the type carries any
// precise pointer information at all (used to decide whether an object can
// be relocated and type-transformed or must be handled conservatively).
func HasPreciseInfo(t *Type, p Policy) bool {
	if t == nil || t.Kind == KindOpaque {
		return false
	}
	l := LayoutOf(t, p)
	// A type is precise if it is not entirely opaque.
	var opaqueBytes uint64
	for _, r := range l.Opaques {
		opaqueBytes += r.Size
	}
	return opaqueBytes < t.Size || t.Size == 0
}
