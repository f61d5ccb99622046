package main

import "testing"

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{Name: "ledger", Start: 0, End: 100, Parent: -1},
		{Name: "a.x", Start: 10, End: 40, Parent: 0},
		{Name: "b.y", Start: 30, End: 50, Parent: 0}, // overlaps a.x by 10
		{Name: "a.z", Start: 15, End: 20, Parent: 1},
		{Name: "c.w", Start: 90, End: 120, Parent: 0}, // clipped to the root
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	// root: 100 - union{[10,50), [90,100)} = 100 - 50 = 50
	want := []int64{50, 25, 20, 5, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("self = %v, want %v", self, want)
		}
	}
}

func TestLedgerAddsUpToTotal(t *testing.T) {
	spans := []span{
		{Name: "ledger", Start: 0, End: 1000, Parent: -1},
		{Name: "raslog.parse", Start: 0, End: 300, Parent: 0},
		{Name: "preprocess.temporal", Start: 300, End: 500, Parent: 0},
		{Name: "preprocess.spatial", Start: 500, End: 600, Parent: 0},
		{Name: "engine.train_step", Start: 650, End: 950, Parent: 0},
		{Name: "meta.inner", Start: 700, End: 800, Parent: 4},
	}
	l, err := buildLedger(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.check(); err != nil {
		t.Fatal(err)
	}
	if l.Layers["preprocess"] != 300 || l.Layers["engine"] != 200 || l.Layers["meta"] != 100 || l.Unattributed != 100 {
		t.Fatalf("ledger %+v", l)
	}
}

func TestSelfTimesRejectOpenSpans(t *testing.T) {
	if _, err := selfTimes([]span{{Name: "x", Start: 5, End: -1, Parent: -1}}); err == nil {
		t.Fatal("an unended span must be an error")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", -1, 0)
	tr.end(i)
	if i != -1 {
		t.Fatalf("nil tracer returned span %d", i)
	}
}
