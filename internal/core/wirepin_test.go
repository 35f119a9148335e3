package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rcb/internal/dom"
	"rcb/internal/sites"
)

// pinnedDocTime is the docTime every pinned message is marshaled at.
const pinnedDocTime = 1700000000000

// figure4Pins are the SHA-256 digests of the Figure 4 rendering of each
// corpus site's ContentFromDocument, and of nonASCIIPage, taken before the
// codec moved to word-at-a-time kernels. The wire encoding is a protocol
// contract: any change to these bytes is a protocol change, not a speed-up.
var figure4Pins = map[string]string{
	"yahoo.com":     "903abada5dd561c02657734484a19a168ef8c3bc648b45eb71b7b9c0d7bc20d4",
	"google.com":    "e2b14a96891e2800c5ff36cab94ac079844a518a3d87fb4acd9b1b827911198e",
	"youtube.com":   "caec612e35e8039c943cd596038eb69b58b100dc8cf2a8d5b819a9f785c526e9",
	"live.com":      "d2efca489575aeb28c42c0746ac8d67e922a3d54b0fa329531a47ef93a053cb1",
	"msn.com":       "fea8a3484e8e2abdbad8638e98a754d5fbea714202b8ce5d5a6eec4df979e4bf",
	"myspace.com":   "e0177fe9f1ec95fa24ea6dfedad1f4b704b5b026b26a19b75e92c9126c198ff7",
	"wikipedia.org": "97f11b8f2c9a966909a9566403b9832e6e2942832b5e5f9be368733368089a2d",
	"facebook.com":  "e663c1321558a23917fbfefd8dfccac24799ec2926f0ae025d9e20c4d2a28e78",
	"yahoo.co.jp":   "8c8b7eb5bede84195d0ba3bf44db633559a7f7041eb32607d2094c5a4790cf2b",
	"ebay.com":      "c0ffccf4b3eac0eba6e789f091f487e689cba6beb6f5e273d58c3963011d46c1",
	"aol.com":       "3080c2b8fcd3113b8c1b5e6bdc7083837ab01b14cd1d282941504b6ba5ded8ac",
	"mail.ru":       "e46c0551572b0e79aec1f576ec7b9e2de2ab6718018cd95b65c8d1fca5c2c7c8",
	"amazon.com":    "ac52b54237186766633e3d61af4b382cd3640f8e22dcfdcd3d4dbf8cba3f07bd",
	"cnn.com":       "14e5950b4cdfe51a063f6277d232846e9aeb9cf00f3b909fdfb213abbc9e6ad0",
	"espn.go.com":   "53ae5f9aef6bf8543aa8f384e9f9b133cdd5d24a5590cdbec6f117b44478ed0e",
	"free.fr":       "fe8e2c11d29864c53f37b33c6ca2e4be497e65522db3a11d543f503378f6cc24",
	"adobe.com":     "1fb22cd4f93156ebe0afe61f606d5c6229eb38c7eb93544df2c33f54b5814b28",
	"apple.com":     "1ae4919f66beb9224a4f4e6c0625adb267a48496d38482ea3bbd9de94aeeac15",
	"about.com":     "383b17a0d02f179fe978f58a60825f2353504c7224f16c0a289956ec1951c92b",
	"nytimes.com":   "9fadec775a049d547794a488a6c120b71b1254f09b0a32fda665f3ed0f2ffe95",
	"non-ascii":     "6a128c8ad85f3a82837f8570ac6fdc2a2ea64d33c11dbe7fcabf8aeeead22eef",
}

// nonASCIIPage exercises every non-ASCII branch of escape(): Latin-1 (%XX
// above 0x7F), BMP (%uXXXX), astral code points (surrogate pairs), sparse
// and dense, in the head, the body attributes and the body text.
const nonASCIIPage = `<html><head><title>Café – 日本語 𝄞</title>` +
	`<meta name="description" content="naïve résumé €5 😀"></head>` +
	`<body class="é ü" data-x="𐐷𐐷"><p>Grüße aus Köln. ` +
	`Ελληνικά, русский, العربية, हिन्दी, 中文 and emoji 🎉🚀 ` +
	`mixed with plain ASCII text @*_+-./ 100% <b>bold</b> &amp; more.</p>` +
	`<div>ÿ¡¿ ±×÷  nbsp  sep 𝒜𝒷𝒸</div></body></html>`

func TestFigure4WireBytesPinned(t *testing.T) {
	check := func(name string, c *NewContent) {
		t.Helper()
		sum := sha256.Sum256(c.Marshal())
		if got := hex.EncodeToString(sum[:]); got != figure4Pins[name] {
			t.Errorf("%s: Figure 4 bytes changed: sha256 %s, pinned %s", name, got, figure4Pins[name])
		}
	}
	for _, spec := range sites.Table1 {
		doc := dom.Parse(sites.GeneratePage(spec, sites.Inventory(spec)))
		check(spec.Name, ContentFromDocument(doc.Root, pinnedDocTime))
	}
	c := ContentFromDocument(dom.Parse(nonASCIIPage).Root, pinnedDocTime)
	c.UserActions = []Action{{Kind: ActionFormInput, Target: "1.0", Value: "Straße ✓ 𝄞", From: "p1", Seq: 3}}
	check("non-ascii", c)
}

// mirrorOnlyPin is the Figure 4 message a receiver gets for one mirrored
// pointer move and no new document: the bulk of a pointer-heavy session's
// downstream bytes.
const mirrorOnlyPin = "<?xml version='1.0' encoding='utf-8'?>\n<newContent>\n" +
	"<docTime>1700000000000</docTime>\n" +
	"<userActions><![CDATA[%5B%7B%22kind%22%3A%22mousemove%22%2C%22x%22%3A412%2C%22y%22%3A87%2C%22from%22%3A%22p1%22%7D%5D]]></userActions>\n" +
	"</newContent>\n"

// TestMirrorOnlyWireBytesPinned pins a one-pointer-move mirror-only
// message: the copy the session table queues for a receiver, marshaled as
// deliver marshals an answer with no new document. The sender's replay
// stamps (Seq, CID, CSeq) never reach the wire.
func TestMirrorOnlyWireBytesPinned(t *testing.T) {
	tab := newSessionTable()
	sender, _ := tab.join(false, 0)
	receiver, _ := tab.join(false, 0)
	tab.broadcast(Action{Kind: ActionMouseMove, X: 412, Y: 87, From: sender,
		Seq: 9, CID: "c1x2y3-1", CSeq: 7}, func(string) {})
	p, _ := tab.lookup(receiver)
	_, acts := p.drain()
	got := string((&NewContent{DocTime: pinnedDocTime, UserActions: acts}).Marshal())
	if got != mirrorOnlyPin {
		t.Fatalf("mirror-only bytes changed:\n got %q\nwant %q", got, mirrorOnlyPin)
	}
}
