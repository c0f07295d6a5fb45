package core

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"testing"

	"newslink/internal/kg"
)

func TestEmbeddingsRoundTrip(t *testing.T) {
	g := figure1Graph()
	e := NewEmbedder(g, Options{})
	embs := []*DocEmbedding{
		e.EmbedGroups([][]string{
			{"upper dir", "swat valley", "pakistan", "taliban"},
			{"pakistan", "taliban"},
		}),
		nil, // unembeddable document
		e.EmbedGroups([][]string{{"taliban"}}),
	}
	var buf bytes.Buffer
	if err := WriteEmbeddings(&buf, embs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEmbeddings(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(embs) {
		t.Fatalf("len = %d", len(got))
	}
	if got[1] != nil {
		t.Fatal("nil embedding not preserved")
	}
	for i := range embs {
		if embs[i] == nil {
			continue
		}
		a, b := embs[i], got[i]
		if !reflect.DeepEqual(a.Counts, b.Counts) {
			t.Fatalf("doc %d counts differ: %v vs %v", i, a.Counts, b.Counts)
		}
		if len(a.Subgraphs) != len(b.Subgraphs) {
			t.Fatalf("doc %d subgraph counts differ", i)
		}
		for j := range a.Subgraphs {
			sa, sb := a.Subgraphs[j], b.Subgraphs[j]
			if sa.Root != sb.Root ||
				!reflect.DeepEqual(sa.Labels, sb.Labels) ||
				!reflect.DeepEqual(sa.Dists, sb.Dists) ||
				!reflect.DeepEqual(sa.Nodes, sb.Nodes) ||
				!eqArcs(sa.Arcs, sb.Arcs) {
				t.Fatalf("doc %d subgraph %d differs:\n%+v\nvs\n%+v", i, j, sa, sb)
			}
			if len(sa.LabelArcs) != len(sb.LabelArcs) {
				t.Fatalf("doc %d subgraph %d label arc sets differ", i, j)
			}
			for k := range sa.LabelArcs {
				if !eqArcs(sa.LabelArcs[k], sb.LabelArcs[k]) {
					t.Fatalf("doc %d subgraph %d label %d arcs differ", i, j, k)
				}
			}
		}
	}
	// Behaviour after round trip: path extraction still works.
	paths := got[0].PathsBetween("taliban", "upper dir", 5)
	if len(paths) != 2 {
		t.Fatalf("paths after round trip = %d, want 2", len(paths))
	}
}

// eqArcs compares arc slices treating nil and empty as equal.
func eqArcs(a, b []PathArc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReadEmbeddingsV2Fixture: snapshots saved by the retired int8-quantized
// BON mode carry emb.bin in the NLEMB2 format. testdata/emb_v2.bin and
// testdata/emb_v1.bin were written by that mode's encoder from the same
// four documents (one unembeddable), with and without signatures. Both
// must decode to the same embeddings, the NLEMB1 writer must reproduce
// emb_v1.bin byte for byte, and a truncated signature block must fail
// rather than load silently.
func TestReadEmbeddingsV2Fixture(t *testing.T) {
	g := figure1Graph()
	v1, err := os.ReadFile("testdata/emb_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile("testdata/emb_v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadEmbeddings(bytes.NewReader(v1), g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadEmbeddings(bytes.NewReader(v2), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[1] != nil || got[0] == nil {
		t.Fatalf("decoded %d docs from the fixture, want 4 with doc 1 absent", len(got))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("NLEMB2 fixture decodes differently from its NLEMB1 twin")
	}
	var buf bytes.Buffer
	if err := WriteEmbeddings(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v1) {
		t.Fatal("re-encoding the fixture's embeddings diverged from emb_v1.bin")
	}
	if _, err := ReadEmbeddings(bytes.NewReader(v2[:len(v2)-2]), g); err == nil {
		t.Fatal("truncated signature block: expected error")
	}
}

// TestReadEmbeddingsBoundsAllocation: the document count in the header is
// untrusted. An 11-byte file claiming 2^28-1 documents must fail at EOF
// without allocating for the claimed count first.
func TestReadEmbeddingsBoundsAllocation(t *testing.T) {
	g := figure1Graph()
	data := append([]byte(embMagic), 0xff, 0xff, 0xff, 0x0f)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadEmbeddings(bytes.NewReader(data), g)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated body: expected error")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("decoding an 11-byte header allocated %d bytes, want < 1 MiB", alloc)
	}
}

// FuzzEmbeddingDecode: arbitrary bytes must never panic the decoder, and
// whatever decodes must survive a re-encode: encode(decode(x)) decodes
// again and re-encodes to the same bytes.
func FuzzEmbeddingDecode(f *testing.F) {
	for _, name := range []string{"testdata/emb_v1.bin", "testdata/emb_v2.bin"} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(embMagic))
	f.Add(append([]byte(embMagicV2), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
	g := figure1Graph()
	f.Fuzz(func(t *testing.T, data []byte) {
		embs, err := ReadEmbeddings(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteEmbeddings(&first, embs); err != nil {
			t.Fatalf("re-encoding decoded embeddings: %v", err)
		}
		again, err := ReadEmbeddings(bytes.NewReader(first.Bytes()), g)
		if err != nil {
			t.Fatalf("decoding a re-encoded snapshot: %v", err)
		}
		if err := WriteEmbeddings(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("encode/decode is not a fixed point")
		}
	})
}

func TestReadEmbeddingsRejectsCorruption(t *testing.T) {
	g := figure1Graph()
	e := NewEmbedder(g, Options{})
	embs := []*DocEmbedding{e.EmbedGroups([][]string{{"pakistan", "taliban"}})}
	var buf bytes.Buffer
	if err := WriteEmbeddings(&buf, embs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Every strict prefix of a valid snapshot, in either version, must fail
	// to decode rather than yield fewer documents.
	for _, name := range []string{"testdata/emb_v1.bin", "testdata/emb_v2.bin"} {
		full, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for n := range full {
			if _, err := ReadEmbeddings(bytes.NewReader(full[:n]), g); err == nil {
				t.Fatalf("%s truncated to %d of %d bytes: expected error", name, n, len(full))
			}
		}
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ReadEmbeddings(bytes.NewReader(bad), g); err == nil {
		t.Error("bad magic: expected error")
	}
	// A graph too small for the stored node ids must be rejected.
	tb := kg.NewBuilder(2)
	a := tb.AddNode("X", kg.KindGPE, "")
	b2 := tb.AddNode("Y", kg.KindGPE, "")
	tb.AddEdgeByName(a, b2, "r", 1)
	tiny := tb.Build()
	if _, err := ReadEmbeddings(bytes.NewReader(data), tiny); err == nil {
		t.Error("wrong graph: expected error")
	}
}
