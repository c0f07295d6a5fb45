package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"newslink/internal/kg"
)

// Binary embedding snapshot format (little endian):
//
//	magic "NLEMB1\n" or "NLEMB2\n"
//	uint32 numDocs
//	per doc: uint8 present; if present:
//	  uint32 numSubgraphs
//	  per subgraph:
//	    uint32 root
//	    uint32 numLabels; per label: string, float64 dist
//	    uint32 numNodes;  per node: uint32
//	    uint32 numArcs;   per arc: from u32, to u32, rel u16, reverse u8
//	    per label: uint32 count; arcs in the same encoding
//
// Version 2, written by an earlier int8-quantized BON retrieval mode, is
// read-only: it appends one signature per document after the embedding
// payload (per doc: float32 scale, uint16 dim, dim × int8), which
// ReadEmbeddings validates for length and discards.
//
// Counts maps are rebuilt from the subgraph node sets on load.

const (
	embMagic   = "NLEMB1\n"
	embMagicV2 = "NLEMB2\n"
)

// WriteEmbeddings serializes per-document embeddings (nil entries are
// preserved as absent) in the version-1 format.
func WriteEmbeddings(w io.Writer, embs []*DocEmbedding) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(embMagic); err != nil {
		return err
	}
	le := func(data any) error { return binary.Write(bw, binary.LittleEndian, data) }
	if err := le(uint32(len(embs))); err != nil {
		return err
	}
	for _, e := range embs {
		if e == nil {
			if err := le(uint8(0)); err != nil {
				return err
			}
			continue
		}
		if err := le(uint8(1)); err != nil {
			return err
		}
		if err := le(uint32(len(e.Subgraphs))); err != nil {
			return err
		}
		for _, sg := range e.Subgraphs {
			if err := writeSubgraph(bw, sg); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeSubgraph(w io.Writer, sg *Subgraph) error {
	le := func(data any) error { return binary.Write(w, binary.LittleEndian, data) }
	if err := le(uint32(sg.Root)); err != nil {
		return err
	}
	if len(sg.Labels) != len(sg.Dists) || len(sg.Labels) != len(sg.LabelArcs) {
		return fmt.Errorf("core: inconsistent subgraph: %d labels, %d dists, %d arc sets",
			len(sg.Labels), len(sg.Dists), len(sg.LabelArcs))
	}
	if err := le(uint32(len(sg.Labels))); err != nil {
		return err
	}
	for i, l := range sg.Labels {
		if err := writeString(w, l); err != nil {
			return err
		}
		if err := le(sg.Dists[i]); err != nil {
			return err
		}
	}
	if err := le(uint32(len(sg.Nodes))); err != nil {
		return err
	}
	for _, n := range sg.Nodes {
		if err := le(uint32(n)); err != nil {
			return err
		}
	}
	if err := writeArcs(w, sg.Arcs); err != nil {
		return err
	}
	for _, arcs := range sg.LabelArcs {
		if err := writeArcs(w, arcs); err != nil {
			return err
		}
	}
	return nil
}

func writeArcs(w io.Writer, arcs []PathArc) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(arcs))); err != nil {
		return err
	}
	for _, a := range arcs {
		rev := uint8(0)
		if a.Reverse {
			rev = 1
		}
		if err := binary.Write(w, binary.LittleEndian, struct {
			From, To uint32
			Rel      uint16
			Rev      uint8
		}{uint32(a.From), uint32(a.To), uint16(a.Rel), rev}); err != nil {
			return err
		}
	}
	return nil
}

// ReadEmbeddings parses a snapshot in either version, validating node and
// relation ids against g. A version-2 signature block is skipped.
func ReadEmbeddings(r io.Reader, g *kg.Graph) ([]*DocEmbedding, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(embMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if string(magic) != embMagic && string(magic) != embMagicV2 {
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	embs, err := readEmbBody(br, g)
	if err != nil {
		return nil, err
	}
	if string(magic) == embMagicV2 {
		for i := range embs {
			// float32 scale, then a uint16 dimension and that many int8s.
			var hdr [6]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return nil, fmt.Errorf("core: doc %d signature: %w", i, err)
			}
			dim := int(binary.LittleEndian.Uint16(hdr[4:]))
			if n, err := br.Discard(dim); n < dim {
				return nil, fmt.Errorf("core: doc %d signature: %w", i, err)
			}
		}
	}
	return embs, nil
}

// readEmbBody parses the per-document embedding payload that follows the
// magic string.
func readEmbBody(br *bufio.Reader, g *kg.Graph) ([]*DocEmbedding, error) {
	le := func(data any) error { return binary.Read(br, binary.LittleEndian, data) }
	var nDocs uint32
	if err := le(&nDocs); err != nil {
		return nil, err
	}
	if nDocs > 1<<28 {
		return nil, fmt.Errorf("core: implausible doc count %d", nDocs)
	}
	// The header is untrusted: grow the slice as documents actually decode
	// so a tiny file claiming 2^28 documents cannot allocate gigabytes.
	out := make([]*DocEmbedding, 0, min(int(nDocs), 1024))
	for i := 0; i < int(nDocs); i++ {
		var present uint8
		if err := le(&present); err != nil {
			return nil, fmt.Errorf("core: doc %d: %w", i, err)
		}
		if present == 0 {
			out = append(out, nil)
			continue
		}
		var nSubs uint32
		if err := le(&nSubs); err != nil {
			return nil, err
		}
		if nSubs > 1<<20 {
			return nil, fmt.Errorf("core: doc %d: implausible subgraph count %d", i, nSubs)
		}
		emb := &DocEmbedding{Counts: make(map[kg.NodeID]int)}
		for s := uint32(0); s < nSubs; s++ {
			sg, err := readSubgraph(br, g)
			if err != nil {
				return nil, fmt.Errorf("core: doc %d subgraph %d: %w", i, s, err)
			}
			emb.Subgraphs = append(emb.Subgraphs, sg)
			for _, n := range sg.Nodes {
				emb.Counts[n]++
			}
		}
		out = append(out, emb)
	}
	return out, nil
}

func readSubgraph(r io.Reader, g *kg.Graph) (*Subgraph, error) {
	le := func(data any) error { return binary.Read(r, binary.LittleEndian, data) }
	sg := &Subgraph{}
	var root uint32
	if err := le(&root); err != nil {
		return nil, err
	}
	if int(root) >= g.NumNodes() {
		return nil, fmt.Errorf("root %d out of range", root)
	}
	sg.Root = kg.NodeID(root)
	var nLabels uint32
	if err := le(&nLabels); err != nil {
		return nil, err
	}
	if nLabels > 1<<16 {
		return nil, fmt.Errorf("implausible label count %d", nLabels)
	}
	for i := uint32(0); i < nLabels; i++ {
		l, err := readString(r)
		if err != nil {
			return nil, err
		}
		var d float64
		if err := le(&d); err != nil {
			return nil, err
		}
		sg.Labels = append(sg.Labels, l)
		sg.Dists = append(sg.Dists, d)
	}
	var nNodes uint32
	if err := le(&nNodes); err != nil {
		return nil, err
	}
	if int(nNodes) > g.NumNodes() {
		return nil, fmt.Errorf("node count %d exceeds graph size", nNodes)
	}
	for i := uint32(0); i < nNodes; i++ {
		var n uint32
		if err := le(&n); err != nil {
			return nil, err
		}
		if int(n) >= g.NumNodes() {
			return nil, fmt.Errorf("node %d out of range", n)
		}
		sg.Nodes = append(sg.Nodes, kg.NodeID(n))
	}
	arcs, err := readArcs(r, g)
	if err != nil {
		return nil, err
	}
	sg.Arcs = arcs
	sg.LabelArcs = make([][]PathArc, nLabels)
	for i := range sg.LabelArcs {
		if sg.LabelArcs[i], err = readArcs(r, g); err != nil {
			return nil, err
		}
	}
	return sg, nil
}

func readArcs(r io.Reader, g *kg.Graph) ([]PathArc, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if uint64(n) > uint64(g.NumEdges())*2+1 {
		return nil, fmt.Errorf("arc count %d exceeds graph size", n)
	}
	// n is bounded by the graph, not by the input: grow as arcs decode.
	out := make([]PathArc, 0, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		var raw struct {
			From, To uint32
			Rel      uint16
			Rev      uint8
		}
		if err := binary.Read(r, binary.LittleEndian, &raw); err != nil {
			return nil, err
		}
		if int(raw.From) >= g.NumNodes() || int(raw.To) >= g.NumNodes() {
			return nil, fmt.Errorf("arc endpoint out of range")
		}
		if int(raw.Rel) >= g.NumRels() {
			return nil, fmt.Errorf("relation %d out of range", raw.Rel)
		}
		out = append(out, PathArc{
			From:    kg.NodeID(raw.From),
			To:      kg.NodeID(raw.To),
			Rel:     kg.RelID(raw.Rel),
			Reverse: raw.Rev != 0,
		})
	}
	return out, nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
