package obs

import (
	"context"
	"strings"
	"testing"
)

func TestNewTraceContextIsValidAndUnique(t *testing.T) {
	a, b := NewTraceContext(), NewTraceContext()
	if !a.Valid() || !b.Valid() {
		t.Fatalf("fresh contexts must be valid: %+v %+v", a, b)
	}
	if a.TraceID == b.TraceID {
		t.Errorf("two fresh trace IDs collided: %s", a.TraceID)
	}
	if len(a.TraceID) != 32 || len(a.SpanID) != 16 {
		t.Errorf("field lengths: trace %d span %d, want 32/16", len(a.TraceID), len(a.SpanID))
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	header := tc.Header()
	if !strings.HasPrefix(header, "00-") || !strings.HasSuffix(header, "-01") {
		t.Fatalf("header %q, want 00-...-01", header)
	}
	got, ok := ParseTraceParent(header)
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, tc)
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	valid := NewTraceContext().Header()
	bad := []string{
		"",
		"garbage",
		valid[:54],                          // truncated
		valid + "0",                         // too long
		"01" + valid[2:],                    // unknown version
		strings.ToUpper(valid),              // uppercase hex
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("0", 32) + "-" + valid[36:52] + "-01", // all-zero trace ID
		valid[:53] + "zz", // non-hex flags
	}
	for _, s := range bad {
		if _, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) accepted, want rejection", s)
		}
	}
}

func TestInvalidContextRendersEmptyHeader(t *testing.T) {
	if h := (TraceContext{}).Header(); h != "" {
		t.Errorf("zero context header %q, want empty", h)
	}
	if h := (TraceContext{TraceID: "short", SpanID: "also"}).Header(); h != "" {
		t.Errorf("malformed context header %q, want empty", h)
	}
}

func TestTraceContextChild(t *testing.T) {
	tc := NewTraceContext()
	child := tc.Child(SpanID(7))
	if child.TraceID != tc.TraceID {
		t.Errorf("child trace ID %s, want parent's %s", child.TraceID, tc.TraceID)
	}
	if child.SpanID != "0000000000000007" {
		t.Errorf("child span ID %s, want 0000000000000007", child.SpanID)
	}
	if !child.Valid() {
		t.Errorf("child %+v invalid", child)
	}
}

func TestTraceContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if got := TraceContextFrom(ctx); got.Valid() {
		t.Fatalf("uninstrumented context yielded %+v", got)
	}
	tc := NewTraceContext()
	ctx = ContextWithTraceContext(ctx, tc)
	if got := TraceContextFrom(ctx); got != tc {
		t.Errorf("got %+v, want %+v", got, tc)
	}
	// An invalid context must not overwrite: the helper leaves ctx unchanged.
	ctx2 := ContextWithTraceContext(ctx, TraceContext{})
	if got := TraceContextFrom(ctx2); got != tc {
		t.Errorf("invalid overwrite: got %+v, want %+v", got, tc)
	}
}

func TestGraftRenumbersAndReparents(t *testing.T) {
	local := NewSpanRecorder(16)
	root := local.Start("sweep")
	lease := root.StartChild("lease")

	// A remote recorder's export: IDs count from 1 and would collide with
	// the local root/lease spans.
	remote := NewSpanRecorder(16)
	cell := remote.Start("cell")
	cell.SetAttr("index", 3)
	exec := cell.StartChild("execute_spec")
	exec.End()
	cell.End()

	kept, _ := local.Graft(lease.ID(), nil, remote.Records(), nil)
	if kept != 2 {
		t.Fatalf("kept %d, want 2", kept)
	}
	tree := local.Tree()
	if len(tree) != 1 || tree[0].Name != "sweep" {
		t.Fatalf("want a single sweep root, got %d roots", len(tree))
	}
	leaseNode := tree[0].Children[0]
	if len(leaseNode.Children) != 1 || leaseNode.Children[0].Name != "cell" {
		t.Fatalf("grafted cell not under lease: %+v", leaseNode)
	}
	cellNode := leaseNode.Children[0]
	if got := cellNode.Attrs["index"]; got != 3 {
		t.Errorf("cell attr index = %v, want 3", got)
	}
	if len(cellNode.Children) != 1 || cellNode.Children[0].Name != "execute_spec" {
		t.Fatalf("intra-batch parent link lost: %+v", cellNode)
	}
	if cellNode.ID == 1 || cellNode.ID == 2 {
		t.Errorf("grafted span kept a colliding remote ID %d", cellNode.ID)
	}
}

func TestGraftCopiesAttrMaps(t *testing.T) {
	local := NewSpanRecorder(8)
	parent := local.Start("root")
	recs := []SpanRecord{{ID: 1, Name: "cell", Attrs: map[string]any{"k": "v"}}}
	local.Graft(parent.ID(), nil, recs, nil)
	recs[0].Attrs["k"] = "mutated"
	got := local.Records()
	if got[1].Attrs["k"] != "v" {
		t.Errorf("graft shared the caller's attr map: %v", got[1].Attrs)
	}
}

func TestGraftRespectsCapacity(t *testing.T) {
	local := NewSpanRecorder(3)
	parent := local.Start("root")
	recs := []SpanRecord{
		{ID: 1, Name: "a"}, {ID: 2, Name: "b"}, {ID: 3, Name: "c"},
	}
	kept, _ := local.Graft(parent.ID(), nil, recs, nil)
	if kept != 2 {
		t.Fatalf("kept %d, want 2 (capacity 3, one local span)", kept)
	}
	if local.Dropped() != 1 {
		t.Errorf("dropped %d, want 1", local.Dropped())
	}
	if local.Len() != 3 {
		t.Errorf("len %d, want 3", local.Len())
	}
}

func TestGraftOntoNilAndEmpty(t *testing.T) {
	var nilRec *SpanRecorder
	if kept, _ := nilRec.Graft(0, nil, []SpanRecord{{ID: 1}}, nil); kept != 0 {
		t.Errorf("nil recorder kept %d", kept)
	}
	local := NewSpanRecorder(4)
	if kept, _ := local.Graft(0, nil, nil, nil); kept != 0 {
		t.Errorf("empty batch kept %d", kept)
	}
	// parent 0 grafts batch roots as additional recorder roots.
	local.Graft(0, nil, []SpanRecord{{ID: 1, Name: "orphan"}}, nil)
	tree := local.Tree()
	if len(tree) != 1 || tree[0].Name != "orphan" {
		t.Fatalf("parent-0 graft: got %d roots", len(tree))
	}
}

// FuzzParseTraceParent throws arbitrary strings at the traceparent parser —
// the code every service and dispatcher request runs on an untrusted header.
// Properties: it never panics; an accepted header yields a Valid context;
// and that context's Header parses back to the same context.
func FuzzParseTraceParent(f *testing.F) {
	for _, s := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // valid
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // wrong version
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",  // uppercase hex
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // all-zero trace ID
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0",   // one short
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-011", // one long
		"00-0af7651916cd43dd8448eb211c80319-cb7ad6b7169203331-01",  // misplaced dash
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceParent(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted %q as invalid context %+v", s, tc)
		}
		back, ok := ParseTraceParent(tc.Header())
		if !ok || back != tc {
			t.Fatalf("%q: Header %q parses to %+v ok=%v, want %+v", s, tc.Header(), back, ok, tc)
		}
	})
}
