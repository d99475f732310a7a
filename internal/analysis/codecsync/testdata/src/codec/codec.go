// Fixture for codec pair synchronisation. Each MsgN exercises one
// defect class; Good exercises the loop/alias machinery with a correct
// pair that must stay silent.
package codec

type rdr struct {
	data []byte
	off  int
}

func (r *rdr) uvarint() uint64 { r.off++; return 0 }
func (r *rdr) str() string     { r.off++; return "" }

// Msg1: plain field-order drift.
type Msg1 struct {
	A uint64
	B string
}

func (m *Msg1) AppendWire(b []byte) []byte {
	b = append(b, byte(m.A))
	b = append(b, m.B...)
	return b
}

func (m *Msg1) DecodeWire(data []byte) error {
	r := &rdr{data: data}
	m.B = r.str() // want `field order drift`
	m.A = r.uvarint()
	return nil
}

// Msg3: decoder reads a field the encoder never writes.
type Msg3 struct {
	A uint64
	B string
}

func (m *Msg3) AppendWire(b []byte) []byte {
	b = append(b, byte(m.A))
	return b
}

func (m *Msg3) DecodeWire(data []byte) error {
	r := &rdr{data: data}
	m.A = r.uvarint()
	m.B = r.str() // want `encoder never writes it`
	return nil
}

// Msg4: encoder writes a field the decoder never reads.
type Msg4 struct {
	A uint64
	B string
}

func (m *Msg4) AppendWire(b []byte) []byte {
	b = append(b, byte(m.A))
	b = append(b, m.B...)
	return b
}

func (m *Msg4) DecodeWire(data []byte) error { // want `decoder never reads it`
	r := &rdr{data: data}
	m.A = r.uvarint()
	return nil
}

// Msg5: deliberate legacy asymmetry, suppressed.
type Msg5 struct {
	A uint64
	B string
}

func (m *Msg5) AppendWire(b []byte) []byte {
	b = append(b, byte(m.A))
	b = append(b, m.B...)
	return b
}

func (m *Msg5) DecodeWire(data []byte) error {
	r := &rdr{data: data}
	m.B = r.str() //lint:allow codec — legacy decoders read the fields reversed on purpose here
	m.A = r.uvarint()
	return nil
}

// Good: repeated-field codec with correct order, an optional struct
// behind a presence byte, and the range/append alias idioms the real
// codecs use.
type Item struct {
	ID  uint64
	Tag string
}

type Good struct {
	Items []Item
	Opt   *Item
	Note  string
}

func (g *Good) AppendWire(b []byte) []byte {
	b = append(b, byte(len(g.Items)))
	for _, it := range g.Items {
		b = append(b, byte(it.ID))
		b = append(b, it.Tag...)
	}
	if g.Opt == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = append(b, byte(g.Opt.ID))
		b = append(b, g.Opt.Tag...)
	}
	b = append(b, g.Note...)
	return b
}

func (g *Good) DecodeWire(data []byte) error {
	r := &rdr{data: data}
	n := int(r.uvarint())
	g.Items = make([]Item, 0, n)
	for i := 0; i < n; i++ {
		var it Item
		it.ID = r.uvarint()
		it.Tag = r.str()
		g.Items = append(g.Items, it)
	}
	g.Opt = nil
	if r.uvarint() != 0 {
		o := &Item{}
		o.ID = r.uvarint()
		o.Tag = r.str()
		g.Opt = o
	}
	g.Note = r.str()
	return nil
}
