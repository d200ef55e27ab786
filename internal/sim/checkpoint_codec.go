package sim

// checkpoint_codec.go moves a Checkpoint through the MMCP binary encoding.
//
// # Wire format (version 2)
//
//	"MMCP" | version byte | uvarint bodyLen | body | crc32-IEEE(body), 4 bytes LE
//
// The body is columnar, in the style of the MMTR transcript codec. Integers
// are uvarints unless noted; signed fields travel as their two's-complement
// uint64, so out-of-range values in a crafted file survive decoding and are
// refused by Resume's checks instead.
//
//	header   round | n | 8-byte graph digest LE | zigzag(seed) |
//	         len(plan), plan | maxRounds | alive | 14 Metrics fields |
//	         body flags byte (bit0: restart columns present, which they
//	         are once any node has a nonzero incarnation or round base)
//	slot     state | writer id
//	nodes    n × node flags (see the ckptNode bits) |
//	         one RNG draw count per node with ckptNodeRNG |
//	         restart columns, when present: n × incarnation, n × round base |
//	         one uvarint len, state bytes per node with ckptNodeSnap or
//	         ckptNodeGob
//	inboxes  count | per inbox: node | k | k × (sender, edge id)
//	pending  count | per message: due | to | from | edge id
//	values   groups | one group index per value slot (0: nil) |
//	         uvarint len, gob value section
//
// Machine state is the bytes a Snapshotter's AppendState wrote, or the gob
// fallback's encoding of the machine. The protocol-typed values — the slot
// payload, every inbox and pending message's payload, and every node result
// flagged ckptNodeResult, in that order — have no byte form. They travel in
// one gob stream per checkpoint, grouped by concrete type: per group, in
// first-appearance order, one exemplar value (as an interface, which names
// the type) and then a slice of every value of that type. A value's concrete
// type must therefore be gob-registered by its protocol package (init-time
// gob.Register calls), as interface values always had to be.
//
// # Version 1
//
// Version 1 bodies are gob(Checkpoint) of the earlier struct, whose machine
// states were gob-registered values. ReadCheckpoint still decodes them and
// converts each state with the value's own AppendState, the byte form its
// protocol package provides, so old captures still resume. Nothing writes
// version 1.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"slices"

	"repro/internal/graph"
)

// CheckpointVersion is the checkpoint wire format version this package
// writes. ReadCheckpoint also reads version 1.
const CheckpointVersion = 2

const checkpointMagic = "MMCP"

// Body flag bits.
const ckptRestartCols byte = 1 << 0

// Node flag bits, one uvarint per node; the common combinations fit in one
// byte.
const (
	ckptNodeHalted    uint64 = 1 << iota
	ckptNodeScheduled        // on an awake list for the next round
	ckptNodeAsleep
	ckptNodePulseWake
	ckptNodeRNG    // a draw count follows in the RNG column
	ckptNodeSnap   // HasState: Snapshotter bytes follow in the state column
	ckptNodeResult // a non-nil result takes a value slot
	ckptNodeGob    // gob-fallback bytes follow in the state column
	ckptNodeCrashed

	ckptNodeFlagLimit
)

// WriteTo streams the checkpoint in the versioned binary encoding.
func (cp *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	body, err := cp.appendBody(nil)
	if err != nil {
		return 0, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	var hdr []byte
	hdr = append(hdr, checkpointMagic...)
	hdr = append(hdr, CheckpointVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(body)))
	total := int64(0)
	for _, chunk := range [][]byte{hdr, body, crcOf(body)} {
		n, err := w.Write(chunk)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func crcOf(b []byte) []byte {
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b))
	return crc[:]
}

// Encode renders the checkpoint to its binary form in memory.
func (cp *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// appendBody appends the version-2 body.
func (cp *Checkpoint) appendBody(b []byte) ([]byte, error) {
	stateBytes, restart := 0, false
	for i := range cp.Nodes {
		ns := &cp.Nodes[i]
		stateBytes += len(ns.State) + len(ns.GobState)
		restart = restart || ns.Incarnation != 0 || ns.RoundBase != 0
	}
	b = slices.Grow(b, 64+len(cp.Plan)+2*len(cp.Nodes)+stateBytes+8*len(cp.Pending))

	b = binary.AppendUvarint(b, uint64(cp.Round))
	b = binary.AppendUvarint(b, uint64(cp.N))
	b = binary.LittleEndian.AppendUint64(b, cp.Graph)
	b = binary.AppendUvarint(b, zigzag(cp.Seed))
	b = binary.AppendUvarint(b, uint64(len(cp.Plan)))
	b = append(b, cp.Plan...)
	b = binary.AppendUvarint(b, uint64(cp.MaxRounds))
	b = binary.AppendUvarint(b, uint64(cp.Alive))
	b = appendMetrics(b, &cp.Met)
	var bodyFlags byte
	if restart {
		bodyFlags |= ckptRestartCols
	}
	b = append(b, bodyFlags)
	b = binary.AppendUvarint(b, uint64(cp.Slot.State))
	b = binary.AppendUvarint(b, uint64(cp.Slot.From))

	for i := range cp.Nodes {
		b = binary.AppendUvarint(b, nodeFlags(&cp.Nodes[i]))
	}
	for i := range cp.Nodes {
		if ns := &cp.Nodes[i]; ns.HasRNG {
			b = binary.AppendUvarint(b, ns.RNGDraws)
		}
	}
	if restart {
		for i := range cp.Nodes {
			b = binary.AppendUvarint(b, uint64(cp.Nodes[i].Incarnation))
		}
		for i := range cp.Nodes {
			b = binary.AppendUvarint(b, uint64(cp.Nodes[i].RoundBase))
		}
	}
	for i := range cp.Nodes {
		if ns := &cp.Nodes[i]; ns.HasState {
			b = binary.AppendUvarint(b, uint64(len(ns.State)))
			b = append(b, ns.State...)
		} else if len(ns.GobState) > 0 {
			b = binary.AppendUvarint(b, uint64(len(ns.GobState)))
			b = append(b, ns.GobState...)
		}
	}

	var vals valueEncoder
	vals.add(cp.Slot.Payload)
	b = binary.AppendUvarint(b, uint64(len(cp.Inboxes)))
	for i := range cp.Inboxes {
		ib := &cp.Inboxes[i]
		b = binary.AppendUvarint(b, uint64(ib.Node))
		b = binary.AppendUvarint(b, uint64(len(ib.Msgs)))
		for _, m := range ib.Msgs {
			b = binary.AppendUvarint(b, uint64(m.From))
			b = binary.AppendUvarint(b, uint64(m.EdgeID))
			vals.add(m.Payload)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(cp.Pending)))
	for i := range cp.Pending {
		p := &cp.Pending[i]
		b = binary.AppendUvarint(b, uint64(p.Due))
		b = binary.AppendUvarint(b, uint64(p.To))
		b = binary.AppendUvarint(b, uint64(p.From))
		b = binary.AppendUvarint(b, uint64(p.EdgeID))
		vals.add(p.Payload)
	}
	for i := range cp.Nodes {
		if r := cp.Nodes[i].Result; r != nil {
			vals.add(r)
		}
	}
	return vals.appendTo(b)
}

// nodeFlags packs a node record's booleans into its wire flags.
func nodeFlags(ns *NodeCheckpoint) uint64 {
	var fl uint64
	if ns.Halted {
		fl |= ckptNodeHalted
	}
	if ns.Scheduled {
		fl |= ckptNodeScheduled
	}
	if ns.Asleep {
		fl |= ckptNodeAsleep
	}
	if ns.PulseWake {
		fl |= ckptNodePulseWake
	}
	if ns.HasRNG {
		fl |= ckptNodeRNG
	}
	if ns.HasState {
		fl |= ckptNodeSnap
	} else if len(ns.GobState) > 0 {
		fl |= ckptNodeGob
	}
	if ns.Result != nil {
		fl |= ckptNodeResult
	}
	if ns.Crashed {
		fl |= ckptNodeCrashed
	}
	return fl
}

// valueExemplar carries one value as an interface, so the gob stream names
// its concrete type ahead of the typed slice that follows.
type valueExemplar struct{ V any }

// valueEncoder gathers a checkpoint's protocol-typed values, in slot order,
// into groups by concrete type.
type valueEncoder struct {
	idx    []byte // uvarint group index per slot, 0 for nil
	groups []valueGroup
	byType map[reflect.Type]int
	last   int // group of the previous non-nil value, +1 (0: none)
}

type valueGroup struct {
	typ  reflect.Type
	vals []any
}

func (ve *valueEncoder) add(v any) {
	if v == nil {
		ve.idx = append(ve.idx, 0)
		return
	}
	t := reflect.TypeOf(v)
	g := ve.last - 1
	if g < 0 || ve.groups[g].typ != t {
		var ok bool
		if g, ok = ve.byType[t]; !ok {
			if ve.byType == nil {
				ve.byType = make(map[reflect.Type]int)
			}
			g = len(ve.groups)
			ve.byType[t] = g
			ve.groups = append(ve.groups, valueGroup{typ: t})
		}
		ve.last = g + 1
	}
	ve.groups[g].vals = append(ve.groups[g].vals, v)
	ve.idx = binary.AppendUvarint(ve.idx, uint64(g+1))
}

// appendTo appends the values section: group count, slot indices, and the
// length-prefixed gob stream of exemplars and typed slices.
func (ve *valueEncoder) appendTo(b []byte) ([]byte, error) {
	var sec bytes.Buffer
	enc := gob.NewEncoder(&sec)
	for _, g := range ve.groups {
		if err := enc.Encode(&valueExemplar{V: g.vals[0]}); err != nil {
			return nil, fmt.Errorf("value of type %v: %w", g.typ, err)
		}
		s := reflect.MakeSlice(reflect.SliceOf(g.typ), len(g.vals), len(g.vals))
		for i, v := range g.vals {
			s.Index(i).Set(reflect.ValueOf(v))
		}
		if err := enc.EncodeValue(s); err != nil {
			return nil, fmt.Errorf("values of type %v: %w", g.typ, err)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(ve.groups)))
	b = append(b, ve.idx...)
	b = binary.AppendUvarint(b, uint64(sec.Len()))
	return append(b, sec.Bytes()...), nil
}

// ReadCheckpoint decodes one checkpoint, validating magic, version, and crc.
// It reads versions 1 and 2.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var prelude [5]byte
	if _, err := io.ReadFull(r, prelude[:]); err != nil {
		return nil, fmt.Errorf("sim: checkpoint prelude: %w", err)
	}
	if string(prelude[:4]) != checkpointMagic {
		return nil, fmt.Errorf("sim: not a checkpoint (magic %q)", prelude[:4])
	}
	version := prelude[4]
	if version != 1 && version != CheckpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d (reader supports 1 and %d)", version, CheckpointVersion)
	}
	size, err := binary.ReadUvarint(byteReaderOf(r))
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint length: %w", err)
	}
	if size > 1<<34 {
		return nil, fmt.Errorf("sim: checkpoint length %d implausible", size)
	}
	chunks, err := readBody(r, size)
	var trailer [4]byte
	if err == nil {
		if _, err = io.ReadFull(r, trailer[:]); err == io.EOF && size > 0 {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint body: %w", err)
	}
	var got uint32
	for _, c := range chunks {
		got = crc32.Update(got, crc32.IEEETable, c)
	}
	if want := binary.LittleEndian.Uint32(trailer[:]); got != want {
		return nil, fmt.Errorf("sim: checkpoint crc mismatch: %08x != %08x", got, want)
	}
	var cp *Checkpoint
	if version == 1 {
		cp, err = decodeCheckpointV1(chunks)
	} else {
		var body []byte
		if len(chunks) == 1 {
			body = chunks[0]
		} else {
			body = bytes.Join(chunks, nil)
		}
		cp, err = decodeCheckpointV2(body)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	return cp, nil
}

// decodeCheckpointV2 decodes a version-2 body. Node states are sliced from
// body, not copied. Every count is checked against the bytes left before
// anything is sized by it.
func decodeCheckpointV2(body []byte) (*Checkpoint, error) {
	d := frameDecoder{b: body}
	cp := &Checkpoint{}
	cp.Round = int(d.uvarint())
	n := d.count(1)
	cp.N = n
	cp.Graph = d.uint64()
	cp.Seed = unzigzag(d.uvarint())
	cp.Plan = string(d.bytes(d.uvarint()))
	cp.MaxRounds = int(d.uvarint())
	cp.Alive = int(d.uvarint())
	decodeMetrics(&d, &cp.Met)
	bodyFlags := d.byte()
	if bodyFlags&^ckptRestartCols != 0 {
		return nil, fmt.Errorf("unknown body flags %#x", bodyFlags)
	}
	cp.Slot.State = SlotState(d.uvarint())
	cp.Slot.From = graph.NodeID(d.uvarint())
	if d.err != nil {
		return nil, d.err
	}

	// The flags column is n bytes at least, so n is bounded by the body.
	cp.Nodes = make([]NodeCheckpoint, n)
	flags := make([]uint16, n)
	results := 0
	for v := range cp.Nodes {
		fl := d.uvarint()
		if fl >= ckptNodeFlagLimit {
			return nil, fmt.Errorf("node %d: unknown flags %#x", v, fl)
		}
		flags[v] = uint16(fl)
		ns := &cp.Nodes[v]
		ns.Halted = fl&ckptNodeHalted != 0
		ns.Scheduled = fl&ckptNodeScheduled != 0
		ns.Asleep = fl&ckptNodeAsleep != 0
		ns.PulseWake = fl&ckptNodePulseWake != 0
		ns.HasRNG = fl&ckptNodeRNG != 0
		ns.HasState = fl&ckptNodeSnap != 0
		ns.Crashed = fl&ckptNodeCrashed != 0
		if fl&ckptNodeResult != 0 {
			results++
		}
		if fl&ckptNodeSnap != 0 && fl&ckptNodeGob != 0 {
			return nil, fmt.Errorf("node %d: both Snapshotter and gob state", v)
		}
	}
	for v := range cp.Nodes {
		if ns := &cp.Nodes[v]; ns.HasRNG {
			ns.RNGDraws = d.uvarint()
		}
	}
	if bodyFlags&ckptRestartCols != 0 {
		for v := range cp.Nodes {
			cp.Nodes[v].Incarnation = int(d.uvarint())
		}
		for v := range cp.Nodes {
			cp.Nodes[v].RoundBase = int(d.uvarint())
		}
	}
	for v, fl := range flags {
		if uint64(fl)&(ckptNodeSnap|ckptNodeGob) == 0 {
			continue
		}
		s := d.bytes(d.uvarint())
		switch {
		case len(s) == 0:
		case uint64(fl)&ckptNodeSnap != 0:
			cp.Nodes[v].State = s[:len(s):len(s)]
		default:
			cp.Nodes[v].GobState = s[:len(s):len(s)]
		}
	}

	slots := 1 + results
	if k := d.count(2); k > 0 {
		cp.Inboxes = make([]InboxCheckpoint, k)
		for i := range cp.Inboxes {
			ib := &cp.Inboxes[i]
			ib.Node = graph.NodeID(d.uvarint())
			ib.Msgs = make([]Message, d.count(2))
			for j := range ib.Msgs {
				ib.Msgs[j].From = graph.NodeID(d.uvarint())
				ib.Msgs[j].EdgeID = int(d.uvarint())
			}
			slots += len(ib.Msgs)
		}
	}
	if k := d.count(4); k > 0 {
		cp.Pending = make([]PendingCheckpoint, k)
		for i := range cp.Pending {
			p := &cp.Pending[i]
			p.Due = int(d.uvarint())
			p.To = graph.NodeID(d.uvarint())
			p.From = graph.NodeID(d.uvarint())
			p.EdgeID = int(d.uvarint())
		}
		slots += k
	}
	if d.err != nil {
		return nil, d.err
	}

	vals, err := decodeValues(&d, slots)
	if err != nil {
		return nil, err
	}
	cp.Slot.Payload, vals = vals[0], vals[1:]
	for i := range cp.Inboxes {
		for j := range cp.Inboxes[i].Msgs {
			cp.Inboxes[i].Msgs[j].Payload, vals = vals[0], vals[1:]
		}
	}
	for i := range cp.Pending {
		cp.Pending[i].Payload, vals = vals[0], vals[1:]
	}
	for v, fl := range flags {
		if uint64(fl)&ckptNodeResult != 0 {
			cp.Nodes[v].Result, vals = vals[0], vals[1:]
		}
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%d trailing body bytes", len(d.b))
	}
	return cp, nil
}

// decodeValues decodes the values section into slots values in slot order.
func decodeValues(d *frameDecoder, slots int) ([]any, error) {
	groups := d.count(1)
	if d.err != nil {
		return nil, d.err
	}
	if groups > slots || slots > len(d.b) { // every slot index is a byte at least
		return nil, fmt.Errorf("values section names %d groups for %d slots in %d bytes", groups, slots, len(d.b))
	}
	idx := make([]int, slots)
	sizes := make([]int, groups)
	for i := range idx {
		g := d.uvarint()
		if g > uint64(groups) {
			return nil, fmt.Errorf("value slot %d names group %d of %d", i, g, groups)
		}
		idx[i] = int(g)
		if g > 0 {
			sizes[g-1]++
		}
	}
	sec := d.bytes(d.uvarint())
	if d.err != nil {
		return nil, d.err
	}
	r := bytes.NewReader(sec)
	dec := gob.NewDecoder(r)
	typed := make([]reflect.Value, groups)
	for g := range typed {
		var ex valueExemplar
		if err := dec.Decode(&ex); err != nil {
			return nil, fmt.Errorf("value group %d: %w", g, err)
		}
		if ex.V == nil {
			return nil, fmt.Errorf("value group %d has no type", g)
		}
		s := reflect.New(reflect.SliceOf(reflect.TypeOf(ex.V)))
		if err := dec.DecodeValue(s); err != nil {
			return nil, fmt.Errorf("value group %d: %w", g, err)
		}
		if typed[g] = s.Elem(); typed[g].Len() != sizes[g] {
			return nil, fmt.Errorf("value group %d holds %d values, slots name %d", g, typed[g].Len(), sizes[g])
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the value groups", r.Len())
	}
	vals := make([]any, slots)
	next := make([]int, groups)
	for i, g := range idx {
		if g > 0 {
			vals[i] = typed[g-1].Index(next[g-1]).Interface()
			next[g-1]++
		}
	}
	return vals, nil
}

// checkpointV1 and nodeCheckpointV1 mirror the version-1 gob body; gob
// matches fields by name.
type checkpointV1 struct {
	Round     int
	N         int
	Graph     uint64
	Seed      int64
	Plan      string
	MaxRounds int

	Alive   int
	Met     Metrics
	Slot    SlotCheckpoint
	Nodes   []nodeCheckpointV1
	Inboxes []InboxCheckpoint
	Pending []PendingCheckpoint
}

type nodeCheckpointV1 struct {
	Halted    bool
	Scheduled bool
	Asleep    bool
	PulseWake bool

	HasRNG   bool
	RNGDraws uint64

	Crashed     bool
	Incarnation int
	RoundBase   int

	Result any

	HasState bool
	State    any
	GobState []byte
}

// stateAppender is the byte form of a machine-state value. Version-1
// checkpoints carried Snapshotter states as gob-registered values; the
// protocol packages implement AppendState on those value types too, so a
// version-1 checkpoint converts to the same bytes the machine writes.
type stateAppender interface {
	AppendState(dst []byte) []byte
}

// decodeCheckpointV1 decodes a version-1 gob body and converts its machine
// states to bytes.
func decodeCheckpointV1(chunks [][]byte) (*Checkpoint, error) {
	parts := make([]io.Reader, len(chunks))
	for i, c := range chunks {
		parts[i] = bytes.NewReader(c)
	}
	old := &checkpointV1{}
	if err := gob.NewDecoder(io.MultiReader(parts...)).Decode(old); err != nil {
		return nil, err
	}
	cp := &Checkpoint{
		Round: old.Round, N: old.N, Graph: old.Graph, Seed: old.Seed, Plan: old.Plan,
		MaxRounds: old.MaxRounds, Alive: old.Alive, Met: old.Met, Slot: old.Slot,
		Nodes:   make([]NodeCheckpoint, len(old.Nodes)),
		Inboxes: old.Inboxes, Pending: old.Pending,
	}
	var states []byte
	ends := make([]int, len(old.Nodes))
	for v := range old.Nodes {
		on := &old.Nodes[v]
		cp.Nodes[v] = NodeCheckpoint{
			Halted: on.Halted, Scheduled: on.Scheduled, Asleep: on.Asleep, PulseWake: on.PulseWake,
			Crashed: on.Crashed, HasRNG: on.HasRNG, HasState: on.HasState, RNGDraws: on.RNGDraws,
			Incarnation: on.Incarnation, RoundBase: on.RoundBase, Result: on.Result,
			GobState: on.GobState,
		}
		if on.HasState && on.State != nil {
			sa, ok := on.State.(stateAppender)
			if !ok {
				return nil, fmt.Errorf("version-1 state %T of node %d has no byte form", on.State, v)
			}
			states = sa.AppendState(states)
		}
		ends[v] = len(states)
	}
	start := 0
	for v, end := range ends {
		if end > start {
			cp.Nodes[v].State = states[start:end:end]
		}
		start = end
	}
	return cp, nil
}
