package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{
			"adjacent children",
			[]span{
				{Name: "op", Start: 0, End: 100, Parent: -1},
				{Name: "a", Start: 10, End: 40, Parent: 0},
				{Name: "b", Start: 40, End: 70, Parent: 0},
			},
			[]int64{40, 30, 30},
		},
		{
			"nested: a grandchild is charged to its parent, not its grandparent",
			[]span{
				{Name: "op", Start: 0, End: 100, Parent: -1},
				{Name: "a", Start: 10, End: 90, Parent: 0},
				{Name: "a1", Start: 20, End: 50, Parent: 1},
			},
			[]int64{20, 50, 30},
		},
		{
			"overlapping children: shared time is subtracted once",
			[]span{
				{Name: "op", Start: 0, End: 100, Parent: -1},
				{Name: "a", Start: 10, End: 60, Parent: 0},
				{Name: "b", Start: 40, End: 80, Parent: 0},
			},
			[]int64{30, 50, 40},
		},
		{
			"a child wholly inside a sibling's interval adds nothing",
			[]span{
				{Name: "op", Start: 0, End: 100, Parent: -1},
				{Name: "a", Start: 10, End: 90, Parent: 0},
				{Name: "b", Start: 30, End: 40, Parent: 0},
			},
			[]int64{20, 80, 10},
		},
		{
			"a child running past its parent is clipped to it; an open span is skipped",
			[]span{
				{Name: "op", Start: 0, End: 100, Parent: -1},
				{Name: "late", Start: 80, End: 130, Parent: 0},
				{Name: "open", Start: 10, End: -1, Parent: 0},
			},
			[]int64{80, 50, 0},
		},
	} {
		if got := selfTimes(c.spans); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorderNilAndOpInheritance(t *testing.T) {
	var none *recorder
	id := none.begin("x", -1, 0)
	none.end(id) // must not panic

	rec := newRecorder()
	root := rec.begin("op", -1, 7)
	child := rec.begin("layer", root, -1)
	rec.end(child)
	rec.end(root)
	if rec.spans[child].Op != 7 || rec.spans[child].Parent != root {
		t.Errorf("child span %+v did not inherit op 7 from its parent", rec.spans[child])
	}
	total, self := layerTimes(rec.spans)
	if len(total["op"]) != 1 || len(self["layer"]) != 1 {
		t.Errorf("layerTimes grouped %v / %v", total, self)
	}
	if total["op"][0] < total["layer"][0] || self["op"][0] > total["op"][0] {
		t.Errorf("op total %v, layer total %v, op self %v", total["op"], total["layer"], self["op"])
	}
}
