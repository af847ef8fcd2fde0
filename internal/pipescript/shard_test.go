package pipescript

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"catdb/internal/data"
)

// These suites are named for the row-shard axis they used to sweep: a
// shard was a row-range view of a column handed to one worker. Row
// shards are gone and every op is one plain loop over the whole column,
// so the axis that stays is how that column is stored. Each input runs
// through the reference (one worker, inputs as Table.Split hands them
// out: the split layout) and then over every storage layout crossed
// with pool sizes, requiring bit-identical results and errors
// everywhere.
var shardWorkersSweep = []int{1, 2, 8}

// rowLayouts re-store a table's cells without changing a value:
//   - split: as given, row-mapped views over a shared source;
//   - dense: every column gathered into private dense storage, so the
//     row index is the storage index;
//   - interleaved: a view whose row i is storage slot 2i+1 of a store
//     whose even slots hold decoy cells (a foreign value, every other
//     one missing), so any read or gap count that escapes the view
//     mapping changes the result.
var rowLayouts = []struct {
	name string
	of   func(*data.Table) *data.Table
}{
	{"split", func(t *data.Table) *data.Table { return t }},
	{"dense", denseLayout},
	{"interleaved", interleavedLayout},
}

func denseLayout(t *data.Table) *data.Table {
	out := data.NewTable(t.Name)
	for _, c := range t.Cols {
		d := &data.Column{Name: c.Name, Kind: c.Kind}
		for i := 0; i < c.Len(); i++ {
			d.AppendFrom(c, i)
		}
		out.MustAddColumn(d)
	}
	return out
}

func interleavedLayout(t *data.Table) *data.Table {
	wide := data.NewTable(t.Name)
	for _, c := range t.Cols {
		d := &data.Column{Name: c.Name, Kind: c.Kind}
		for i := 0; i < c.Len(); i++ {
			switch {
			case i%2 == 0:
				d.AppendMissing()
			case c.Kind == data.KindString:
				d.AppendStrs("decoy")
			default:
				d.AppendNums(1e6)
			}
			d.AppendFrom(c, i)
		}
		wide.MustAddColumn(d)
	}
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = 2*i + 1
	}
	return wide.SelectRows(rows)
}

// execShardWays runs the one-worker reference on the split layout and
// then the full (layout, workers) sweep.
func execShardWays(t *testing.T, src string, mk func() (*data.Table, *data.Table), target string, task data.Task) (*Result, error) {
	t.Helper()
	p := mustParse(t, src)
	tr, te := mk()
	setProcs(t, 1)
	base := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true}
	wantRes, wantErr := base.Execute(p, tr, te)
	for _, lay := range rowLayouts {
		for _, w := range shardWorkersSweep {
			tr, te := mk()
			setProcs(t, w)
			ex := &Executor{Target: target, Task: task, Seed: 1, AllowNoTrain: true}
			gotRes, gotErr := ex.Execute(p, lay.of(tr), lay.of(te))
			label := fmt.Sprintf("layout=%s workers=%d", lay.name, w)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: reference err=%v got err=%v", label, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("%s: error mismatch\nreference: %v\ngot:       %v", label, wantErr, gotErr)
				}
				continue
			}
			a, b := *wantRes, *gotRes
			a.Program, b.Program = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: result mismatch\nreference: %+v\ngot:       %+v", label, a, b)
			}
		}
	}
	return wantRes, wantErr
}

// The layouts must not change a cell, or the sweep compares nothing.
func TestShardLayoutsPreserveCells(t *testing.T) {
	tr, _ := split(messyTable(200, 2), 3)
	for _, lay := range rowLayouts {
		got := lay.of(tr)
		if !reflect.DeepEqual(got.ColumnNames(), tr.ColumnNames()) {
			t.Fatalf("%s: columns %v, want %v", lay.name, got.ColumnNames(), tr.ColumnNames())
		}
		for _, c := range tr.Cols {
			g := got.Col(c.Name)
			if g.Kind != c.Kind || g.Len() != c.Len() || g.MissingCount() != c.MissingCount() {
				t.Fatalf("%s: column %q kind/len/gaps %v/%d/%d, want %v/%d/%d", lay.name, c.Name,
					g.Kind, g.Len(), g.MissingCount(), c.Kind, c.Len(), c.MissingCount())
			}
			for i := 0; i < c.Len(); i++ {
				if g.ValueString(i) != c.ValueString(i) || g.IsMissing(i) != c.IsMissing(i) {
					t.Fatalf("%s: column %q row %d is %q, want %q", lay.name, c.Name, i, g.ValueString(i), c.ValueString(i))
				}
			}
		}
	}
}

func TestShardMatchesSerialFullPipeline(t *testing.T) {
	mk := func() (*data.Table, *data.Table) { return split(messyTable(600, 1), 7) }
	res, err := execShardWays(t, `pipeline "full"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
winsorize "num" lower=0.05 upper=0.95
log_transform "num"
scale "num" method=standard
train model=random_forest target="y" trees=15
evaluate metric=auto
`, mk, "y", data.Multiclass)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAUC <= 0 {
		t.Fatalf("expected a trained model, got %+v", res)
	}
}

func TestShardMatchesSerialEncodersAndBarriers(t *testing.T) {
	mk := func() (*data.Table, *data.Table) { return split(messyTable(500, 3), 5) }
	execShardWays(t, `pipeline "mixed"
dedup_values "cat"
hash_encode "cat" buckets=16
impute "num" strategy=mean
impute_all strategy=auto
bin_numeric "num" bins=4
clip_outliers "num" method=iqr factor=2.0
remove_outliers "num" method=iqr factor=4.0
drop_constant
train model=gbm target="y" rounds=8
`, mk, "y", data.Multiclass)
}

func TestShardMatchesSerialRegression(t *testing.T) {
	mk := func() (*data.Table, *data.Table) {
		n := 400
		rng := rand.New(rand.NewSource(9))
		a := make([]float64, n)
		b := make([]float64, n)
		addr := make([]string, n)
		y := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.Float64() * 10
			addr[i] = fmt.Sprintf("%d zone%d", 100+i%90, i%4)
			y[i] = 3*a[i] - b[i] + rng.NormFloat64()*0.1
		}
		tab := data.NewTable("reg")
		tab.MustAddColumn(data.NewNumeric("a", a))
		tab.MustAddColumn(data.NewNumeric("b", b))
		tab.MustAddColumn(data.NewString("addr", addr))
		tab.MustAddColumn(data.NewNumeric("y", y))
		return split(tab, 11)
	}
	execShardWays(t, `pipeline "reg"
split_composite "addr"
ordinal "addr_part"
target_encode "addr_num"
interaction "a" "b" op=product
log_transform "b"
scale "a" method=minmax
train model=linear_regression target="y"
`, mk, "y", data.Regression)
}

// Copy-on-write view inputs: SelectRows produces row-mapped views
// sharing slabs with the source; every write must promote privately, so
// the source table is untouched and results match the reference.
func TestShardMatchesSerialOnCoWViews(t *testing.T) {
	source := messyTable(700, 6)
	mk := func() (*data.Table, *data.Table) {
		rows := make([]int, 0, 500)
		for i := 0; i < 500; i++ {
			rows = append(rows, (i*7)%700)
		}
		return split(source.SelectRows(rows), 13)
	}
	execShardWays(t, `pipeline "cow"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
scale "num" method=standard
train model=naive_bayes target="y"
`, mk, "y", data.Multiclass)
	// The shared source must not have absorbed any pipeline writes.
	if source.Col("num").MissingCount() == 0 {
		t.Fatal("source table mutated: injected missing cells disappeared")
	}
	if source.Col("cat").DistinctCount() <= 3 {
		t.Fatal("source table mutated: dirty categories were deduplicated in place")
	}
}

// Error-carrying pipelines must raise the identical first error (same
// line, code, message) whatever the layout and pool size.
func TestShardMatchesSerialErrors(t *testing.T) {
	for _, src := range []string{
		"pipeline \"e\"\nimpute \"nope\" strategy=median\ntrain target=\"y\"\n",
		"pipeline \"e\"\nscale \"cat\"\nscale \"lst\"\ntrain target=\"y\"\n",
		"pipeline \"e\"\nonehot \"cat\"\nscale \"lst\" method=standard\nkhot \"num\"\ntrain target=\"y\"\n",
		"pipeline \"e\"\ndrop \"y\"\ntrain target=\"y\"\n",
	} {
		mk := func() (*data.Table, *data.Table) { return split(messyTable(200, 2), 3) }
		if _, err := execShardWays(t, src, mk, "y", data.Multiclass); err == nil {
			t.Fatalf("expected an error from %q", src)
		}
	}
}

// Fitted artifacts must serialize byte-identically whatever the layout
// and pool size.
func TestShardFitArtifactIdentical(t *testing.T) {
	src := `pipeline "fit"
impute "num" strategy=median
dedup_values "cat"
onehot "cat"
khot "lst"
scale "num" method=standard
train model=random_forest target="y" trees=10
`
	p := mustParse(t, src)
	tr, te := split(messyTable(400, 5), 9)
	setProcs(t, 1)
	base := &Executor{Target: "y", Task: data.Multiclass, Seed: 2}
	_, wantFP, err := base.Fit(p, tr, te)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantFP)
	if err != nil {
		t.Fatal(err)
	}
	for _, lay := range rowLayouts {
		for _, w := range shardWorkersSweep {
			setProcs(t, w)
			ex := &Executor{Target: "y", Task: data.Multiclass, Seed: 2}
			_, gotFP, err := ex.Fit(p, lay.of(tr), lay.of(te))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(gotFP)
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != string(got) {
				t.Fatalf("layout=%s workers=%d: artifact differs\nreference: %s\ngot:       %s", lay.name, w, want, got)
			}
		}
	}
}

// Randomized programs must reproduce the reference run (results and
// errors) whatever the program shape, layout and pool size.
func TestShardPropertyRandomPrograms(t *testing.T) {
	mk := func() (*data.Table, *data.Table) {
		n := 240
		rng := rand.New(rand.NewSource(42))
		alpha := make([]float64, n)
		beta := make([]float64, n)
		gamma := make([]string, n)
		delta := make([]string, n)
		y := make([]string, n)
		for i := 0; i < n; i++ {
			alpha[i] = rng.NormFloat64()
			beta[i] = float64(i % 5)
			gamma[i] = []string{"x", "y", "z"}[i%3]
			delta[i] = []string{"p", "q"}[i%2]
			y[i] = []string{"no", "yes"}[i%2]
		}
		tab := data.NewTable("prop")
		tab.MustAddColumn(data.NewNumeric("alpha", alpha))
		tab.MustAddColumn(data.NewNumeric("beta", beta))
		tab.MustAddColumn(data.NewString("gamma", gamma))
		tab.MustAddColumn(data.NewString("delta", delta))
		tab.MustAddColumn(data.NewString("y", y))
		for i := 0; i < n; i += 13 {
			tab.Col("alpha").SetMissing(i)
		}
		return split(tab, 17)
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genProgram(rng)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			execShardWays(t, src, mk, "y", data.Binary)
		})
	}
}
