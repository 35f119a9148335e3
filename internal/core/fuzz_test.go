package core

// Native fuzz target for the deltaContent wire path: UnmarshalDelta and the
// length-prefixed patch codec it embeds (deltamsg.go). The snippet feeds
// these bytes straight off the network before any authentication of content
// shape, so the decoder's contract is absolute: arbitrary input produces a
// hard error or a valid message, never a panic — a failed decode is what
// triggers the participant's full-resync fallback. Seed corpus lives under
// testdata/fuzz/FuzzUnmarshalDelta/ and runs on plain `go test`; `make
// fuzz` mutates it.

import (
	"bytes"
	"reflect"
	"testing"

	"rcb/internal/dom"
)

// FuzzUnmarshalDelta checks the decoder invariants on arbitrary bytes:
//
//   - UnmarshalDelta never panics; failures are hard errors.
//   - It fails exactly when refUnmarshalDelta (the original substring-search
//     decoder, fuzzcodec_test.go) does, and otherwise decodes the same
//     message.
//   - A successful parse is stable: Marshal of the result parses again, and
//     the second parse re-marshals byte-identically (encode∘decode is a
//     fixed point past the first normalization).
//   - The raw patch codec (decodePatches) upholds the same contract when
//     fed the input directly, and codec round trips are exact:
//     decode(encode(decode(s))) ≡ decode(s).
func FuzzUnmarshalDelta(f *testing.F) {
	// Seeds: a realistic delta (every section populated), edge shapes, and
	// truncations/corruptions of valid scripts.
	full := &DeltaContent{
		DocTime:     1700000000002,
		BaseDocTime: 1700000000001,
		HasHead:     true,
		Head:        []HeadChild{{Tag: "title", Inner: "t"}, {Tag: "script", Attrs: []dom.Attr{{Name: "id", Value: "rcb-ajax-snippet"}}}},
		Body: []dom.Patch{
			{Op: dom.OpSetAttrs, Path: "0", Attrs: []dom.Attr{{Name: "class", Value: "x&y"}}},
			{Op: dom.OpSetText, Path: "0.1", Text: "hello <世界>"},
			{Op: dom.OpRemove, Path: "2"},
			{Op: dom.OpInsert, Path: "1", Index: 0, Node: dom.NewElement("div")},
		},
		UserActions: []Action{{Kind: ActionMouseMove, X: 3, Y: 4, From: "p1"}},
	}
	f.Add(full.Marshal())
	empty := &DeltaContent{DocTime: 2, BaseDocTime: 1}
	f.Add(empty.Marshal())
	f.Add([]byte(deltaPreamble + "<docTime>9</docTime>\n<baseDocTime>8</baseDocTime>\n<bodyPatch><![CDATA[1;T1:0:2:hi]]></bodyPatch>\n" + closeDeltaContent))
	f.Add([]byte(deltaPreamble + "<docTime>9</docTime>"))           // truncated message
	f.Add([]byte("<?xml version='1.0'?><newContent></newContent>")) // wrong message type
	f.Add([]byte("2;A1:05;"))                                       // bare codec fragment, short attrs
	f.Add([]byte("1;I3:0.0-1;e3:div0;0;"))                          // negative insert index
	f.Add([]byte("999999999;"))                                     // implausible count

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzDeltaSizeCap {
			t.Skip()
		}
		want, wantErr := refUnmarshalDelta(data)
		d, err := UnmarshalDelta(data)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("UnmarshalDelta error %v, reference error %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(d, want) {
			t.Fatalf("UnmarshalDelta = %+v\nreference %+v", d, want)
		}
		if err == nil {
			m1 := d.Marshal()
			d2, err := UnmarshalDelta(m1)
			if err != nil {
				t.Fatalf("re-parse of marshaled delta failed: %v\nmarshaled: %q", err, m1)
			}
			if m2 := d2.Marshal(); !bytes.Equal(m1, m2) {
				t.Errorf("marshal not stable:\nm1: %q\nm2: %q", m1, m2)
			}
		}
		// The raw codec must hold the same contract on arbitrary text.
		p1, err := decodePatches(string(data))
		if err != nil {
			return
		}
		enc1 := appendPatches(nil, p1)
		p2, err := decodePatches(string(enc1))
		if err != nil {
			t.Fatalf("re-decode of encoded script failed: %v\nencoded: %q", err, enc1)
		}
		if enc2 := appendPatches(nil, p2); !bytes.Equal(enc1, enc2) {
			t.Errorf("codec round trip diverged:\nenc1: %q\nenc2: %q", enc1, enc2)
		}
	})
}

// fuzzDeltaSizeCap bounds inputs so mutation explores structure rather than
// timing out on megabyte runs.
const fuzzDeltaSizeCap = 1 << 16
