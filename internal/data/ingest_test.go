package data

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// ingestPoint is one worker count and chunk size of the ingest grid.
type ingestPoint struct{ workers, chunkBytes int }

// parseAt parses input through parseCSVChunkSize at p: GOMAXPROCS, the
// pool's worker count, is set to p.workers (0 leaves it as it is) for the
// call and restored after it.
func parseAt(input string, p ingestPoint) (*Table, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.workers))
	return parseCSVChunkSize([]byte(input), "x", p.chunkBytes)
}

// ingestGrid is the worker × chunk-size matrix the equivalence tests sweep
// through parseAt. Chunk size 1 forces a chunk per record — the
// maximum-fragmentation stress case — while 1<<20 usually keeps the whole
// input in one chunk. The last point is what ReadCSV runs.
var ingestGrid = []ingestPoint{
	{workers: 1, chunkBytes: 1},
	{workers: 1, chunkBytes: 64},
	{workers: 2, chunkBytes: 1},
	{workers: 4, chunkBytes: 7},
	{workers: 4, chunkBytes: 256},
	{workers: 8, chunkBytes: 1 << 20},
	{workers: 0, chunkBytes: defaultChunkBytes},
}

// requireTablesEqual compares two tables cell-by-cell through the public
// accessors: names, kinds, shapes, missing masks, rendered values, and (for
// numeric kinds) exact float bits.
func requireTablesEqual(t *testing.T, want, got *Table, label string) {
	t.Helper()
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for ci, wc := range want.Cols {
		gc := got.Cols[ci]
		if wc.Name != gc.Name {
			t.Fatalf("%s: col %d name %q, want %q", label, ci, gc.Name, wc.Name)
		}
		if wc.Kind != gc.Kind {
			t.Fatalf("%s: col %q kind %v, want %v", label, wc.Name, gc.Kind, wc.Kind)
		}
		for i := 0; i < wc.Len(); i++ {
			if wc.IsMissing(i) != gc.IsMissing(i) {
				t.Fatalf("%s: col %q row %d missing=%v, want %v", label, wc.Name, i, gc.IsMissing(i), wc.IsMissing(i))
			}
			if wc.IsMissing(i) {
				continue
			}
			if wc.ValueString(i) != gc.ValueString(i) {
				t.Fatalf("%s: col %q row %d value %q, want %q", label, wc.Name, i, gc.ValueString(i), wc.ValueString(i))
			}
			if wc.Kind != KindString && math.Float64bits(wc.Num(i)) != math.Float64bits(gc.Num(i)) {
				t.Fatalf("%s: col %q row %d num %v, want %v", label, wc.Name, i, gc.Num(i), wc.Num(i))
			}
		}
	}
}

// requireIngestMatchesLegacy parses input through the legacy serial reader
// and through the chunked reader at every point of grid, requiring
// identical tables or identical error messages.
func requireIngestMatchesLegacy(t *testing.T, input, label string, grid []ingestPoint) {
	t.Helper()
	want, wantErr := readCSVLegacy(strings.NewReader(input), "x")
	for _, g := range grid {
		tag := fmt.Sprintf("%s w=%d cb=%d", label, g.workers, g.chunkBytes)
		got, err := parseAt(input, g)
		if wantErr != nil {
			if err == nil {
				t.Fatalf("%s: chunked succeeded, legacy error: %v", tag, wantErr)
			}
			// The fallback re-parses through the legacy reader, so the
			// message must be the canonical one.
			if err.Error() != wantErr.Error() {
				t.Fatalf("%s: error %q, want %q", tag, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: chunked error %v, legacy succeeded", tag, err)
		}
		requireTablesEqual(t, want, got, tag)
	}
}

// ingestGoldens are the CSV edge cases: quoted fields containing newlines
// and commas, CRLF endings, UTF-8 BOM, empty trailing lines, ragged
// records, and the inputs encoding/csv rejects.
var ingestGoldens = map[string]string{
	"plain":          "a,b,c\n1,2.5,x\n3,4.5,y\n",
	"no trailing nl": "a,b\n1,x\n2,y",
	"quoted newline": "a,b\n\"line1\nline2\",1\n\"more\r\nlines\",2\n",
	"quoted comma":   "a,b\n\"x,y\",1\n\"\"\"quoted\"\"\",2\n",
	"crlf":           "a,b\r\n1,x\r\n2,y\r\n",
	"utf8 bom":       "\xef\xbb\xbfa,b\n1,x\n",
	"empty trailing": "a,b\n1,x\n\n\n",
	"empty interior": "a,b\n1,x\n\n2,y\n\r\n3,z\n",
	"leading empty":  "\n\na,b\n1,x\n",
	"missing cells":  "a,b,c\n,2, \n1,,x\n , ,\n",
	"bool column":    "flag,v\ntrue,1\nFALSE,2\nTrue,3\n",
	"unicode":        "名前,v\n\"こん\nにちは\",1\né,2\n",
	"single column":  "only\n1\n2\n\n3\n",
	"header only":    "a,b,c\n",
	"ragged short":   "a,b\n1\n",
	"ragged long":    "a,b\n1,2,3\n",
	"bare quote":     "a,b\n1,x\"y\n",
	"stray cr tail":  "a\n1\n\r",
	"empty":          "",
	"blank lines":    "\n\n",
	"spaces kind":    "a,b\n 1 , x \n 2 , y \n",
	"all missing":    "a,b\n,\n,\n",
	"numeric mix":    "a,b\n1,1\n2.5,2\nNaN,inf\n",
}

// The CSV edge-case goldens, each pinned byte-identical between the serial
// and chunked-parallel readers across worker counts and chunk sizes.
func TestIngestEdgeCaseGoldens(t *testing.T) {
	for name, input := range ingestGoldens {
		requireIngestMatchesSerialAndLegacy(t, input, name)
	}
}

// requireIngestMatchesSerialAndLegacy additionally checks the WriteCSV
// rendering of the parses is byte-identical (the issue's "byte-identical"
// bar) on inputs that parse.
func requireIngestMatchesSerialAndLegacy(t *testing.T, input, label string) {
	t.Helper()
	requireIngestMatchesLegacy(t, input, label, ingestGrid)
	want, err := readCSVLegacy(strings.NewReader(input), "x")
	if err != nil {
		return
	}
	var wantCSV bytes.Buffer
	if err := WriteCSV(&wantCSV, want); err != nil {
		t.Fatalf("%s: rewrite legacy: %v", label, err)
	}
	for _, g := range ingestGrid {
		got, err := parseAt(input, g)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var gotCSV bytes.Buffer
		if err := WriteCSV(&gotCSV, got); err != nil {
			t.Fatalf("%s: rewrite chunked: %v", label, err)
		}
		if !bytes.Equal(wantCSV.Bytes(), gotCSV.Bytes()) {
			t.Fatalf("%s w=%d cb=%d: re-rendered CSV differs", label, g.workers, g.chunkBytes)
		}
	}
}

// modeDemotionCases are columns that change character deep into the
// file: a numeric-looking column that turns string, an all-missing prefix
// that turns numeric or bool, and a bool prefix that turns string. The
// change comes after row 512+17 because the reader these cases were
// written for guessed each column's storage from its first 512 records;
// they keep that shape so that a reader which decides kinds from a prefix
// fails them.
func modeDemotionCases() map[string]struct {
	input string
	kind  Kind
} {
	const n = 512 * 3
	var latentStr, latentNum, latentBool, boolToStr, intToFloat strings.Builder
	latentStr.WriteString("a,pad\n")
	latentNum.WriteString("a,pad\n")
	latentBool.WriteString("a,pad\n")
	boolToStr.WriteString("a,pad\n")
	intToFloat.WriteString("a,pad\n")
	for i := 0; i < n; i++ {
		switch {
		case i < 512+17:
			fmt.Fprintf(&latentStr, "%d,p\n", i)
			latentNum.WriteString(",p\n")
			latentBool.WriteString(",p\n")
			fmt.Fprintf(&boolToStr, "true,p\n")
			fmt.Fprintf(&intToFloat, "%d,p\n", i)
		default:
			fmt.Fprintf(&latentStr, "v%d,p\n", i)
			fmt.Fprintf(&latentNum, "%d.5,p\n", i)
			fmt.Fprintf(&latentBool, "false,p\n")
			fmt.Fprintf(&boolToStr, "maybe%d,p\n", i)
			fmt.Fprintf(&intToFloat, "%d.25,p\n", i)
		}
	}
	return map[string]struct {
		input string
		kind  Kind
	}{
		"num to string":       {latentStr.String(), KindString},
		"missing to float":    {latentNum.String(), KindFloat},
		"missing to bool":     {latentBool.String(), KindBool},
		"bool to string":      {boolToStr.String(), KindString},
		"int to float":        {intToFloat.String(), KindFloat},
		"stays int":           {latentStr.String()[:len("a,pad\n")+len("0,p\n")*10], KindInt},
		"all missing col":     {"a,pad\n" + strings.Repeat(",p\n", n), KindString},
		"string whole column": {"a,pad\n" + strings.Repeat("s,p\n", n), KindString},
	}
}

// Every column's kind is decided over all its cells, however late its
// character changes.
func TestIngestModeDemotions(t *testing.T) {
	for name, tc := range modeDemotionCases() {
		requireIngestMatchesLegacy(t, tc.input, name, ingestGrid)
		got, err := ReadCSV(strings.NewReader(tc.input), "x")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Col("a").Kind != tc.kind {
			t.Fatalf("%s: kind %v, want %v", name, got.Col("a").Kind, tc.kind)
		}
	}
}

// randomCSVTable builds a table of mixed kinds with adversarial string
// content (commas, quotes, newlines, CRLF, unicode, leading spaces) and
// scattered missing cells, then renders it to CSV.
func randomCSVTable(rng *rand.Rand, rows int) string {
	nasty := []string{"plain", "a,b", "q\"uote", "nl\nline", "crlf\r\nline", "héllo", " lead", "trail ", "true", "12", "3.5", "x"}
	tb := NewTable("r")
	nums := make([]float64, rows)
	ints := make([]float64, rows)
	bools := make([]bool, rows)
	strs := make([]string, rows)
	for i := 0; i < rows; i++ {
		nums[i] = math.Round(rng.NormFloat64()*1e4) / 100
		ints[i] = float64(rng.Intn(2000) - 1000)
		bools[i] = rng.Intn(2) == 0
		strs[i] = nasty[rng.Intn(len(nasty))]
	}
	tb.MustAddColumn(NewNumeric("num", nums))
	tb.MustAddColumn(NewInt("int", ints))
	tb.MustAddColumn(NewBool("bool", bools))
	tb.MustAddColumn(NewString("str", strs))
	for i := 0; i < rows/10; i++ {
		tb.Cols[rng.Intn(4)].SetMissing(rng.Intn(rows))
	}
	var out bytes.Buffer
	if err := WriteCSV(&out, tb); err != nil {
		panic(err)
	}
	return out.String()
}

// TestParallelIngestMatchesSerial is the PR-1-style invariance test: a
// large randomized table with adversarial content parses identically
// through the legacy serial reader and the chunked reader at every point
// of the worker × chunk-size grid.
func TestParallelIngestMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rows := range []int{3, 40, 512 + 100, 2000} {
		input := randomCSVTable(rng, rows)
		requireIngestMatchesSerialAndLegacy(t, input, fmt.Sprintf("rows=%d", rows))
	}
}

// Property: any random table round-trips identically through both readers
// even at pathological chunk sizes.
func TestIngestEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		input := randomCSVTable(rng, 1+rng.Intn(60))
		want, err := readCSVLegacy(strings.NewReader(input), "x")
		if err != nil {
			return false
		}
		for _, cb := range []int{1, 3 + rng.Intn(100), 1 << 16} {
			got, err := parseAt(input, ingestPoint{workers: 1 + rng.Intn(4), chunkBytes: cb})
			if err != nil {
				return false
			}
			var a, b bytes.Buffer
			if WriteCSV(&a, want) != nil || WriteCSV(&b, got) != nil {
				return false
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The cut finder and the tokenizer must agree with encoding/csv on record
// framing: chunks tile the input, each cut follows a record's line end,
// and the chunks' record counts sum to the header plus the parsed rows.
func TestScanCSVChunksFraming(t *testing.T) {
	input := "a,b\n\"x\n,\r\ny\",1\n\n2,3\r\n\r\n4,5\n"
	for _, cb := range []int{1, 2, 5, 1 << 20} {
		cuts := cutChunks([]byte(input), cb)
		if cuts[0] != 0 || cuts[len(cuts)-1] != len(input) {
			t.Fatalf("cb=%d: cuts %v do not span the input", cb, cuts)
		}
		records := 0
		for i := 1; i < len(cuts); i++ {
			if cuts[i] <= cuts[i-1] || (i < len(cuts)-1 && input[cuts[i]-1] != '\n') {
				t.Fatalf("cb=%d: cuts %v must tile the input at line ends", cb, cuts)
			}
			ck := chunk{b: []byte(input[cuts[i-1]:cuts[i]])}
			if !ck.tokenize() {
				t.Fatalf("cb=%d: chunk %q refused", cb, ck.b)
			}
			records += ck.records()
		}
		if records != 1+3 {
			t.Fatalf("cb=%d: %d records, want the header and 3 rows", cb, records)
		}
	}
}

func TestIngestEmptyInputMessage(t *testing.T) {
	_, err := ReadCSV(strings.NewReader(""), "x")
	if err == nil || !strings.Contains(err.Error(), "empty input") {
		t.Fatalf("err = %v, want empty-input message", err)
	}
	_, err = parseAt("\n\n\n", ingestPoint{workers: 4, chunkBytes: 1})
	if err == nil || !strings.Contains(err.Error(), "empty input") {
		t.Fatalf("err = %v, want empty-input message for blank-lines input", err)
	}
}

// refusedGoldens are the goldens the tokenizer hands to readCSVLegacy:
// encoding/csv's error cases, and a lone '\r' ending the input.
var refusedGoldens = map[string]bool{
	"bare quote": true, "ragged short": true, "ragged long": true,
	"empty": true, "blank lines": true, "stray cr tail": true,
}

// A fallback on the workloads' CSVs would hide a slowdown behind the
// equivalence tests, so the tokenizer must read them itself, at two chunk
// sizes: every table of every registry dataset, a serve-shaped table, and
// every golden but the refused ones, each to readCSVLegacy's table.
func TestTokenizerReadsWorkloadCSVs(t *testing.T) {
	inputs := map[string]string{"serve shape": string(serveShapeCSV(20_000))}
	for _, name := range Names() {
		ds, err := Load(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for i, tb := range ds.Tables {
			var b bytes.Buffer
			if err := WriteCSV(&b, tb); err != nil {
				t.Fatal(err)
			}
			inputs[fmt.Sprintf("%s table %d", name, i)] = b.String()
		}
	}
	for name, input := range ingestGoldens {
		if !refusedGoldens[name] {
			inputs["golden "+name] = input
		}
	}
	for label, input := range inputs {
		for _, cb := range []int{4096, defaultChunkBytes} {
			got, err := tokenizeCSV([]byte(input), "x", cb)
			if err != nil {
				t.Fatalf("%s cb=%d: the tokenizer did not read it: %v", label, cb, err)
			}
			if cb == defaultChunkBytes {
				want, err := readCSVLegacy(strings.NewReader(input), "x")
				if err != nil {
					t.Fatalf("%s: legacy: %v", label, err)
				}
				requireTablesEqual(t, want, got, label)
			}
		}
	}
	for name := range refusedGoldens {
		if _, err := tokenizeCSV([]byte(ingestGoldens[name]), "x", defaultChunkBytes); !errors.Is(err, errRefused) {
			t.Fatalf("golden %q: got err %v, want a refusal; drop it from refusedGoldens", name, err)
		}
	}
}

// FuzzReadCSV requires the chunked reader to give readCSVLegacy's table, or
// its error message, on any input, at three (workers, chunk bytes) points.
func FuzzReadCSV(f *testing.F) {
	for _, input := range ingestGoldens {
		f.Add(input)
	}
	for _, tc := range modeDemotionCases() {
		f.Add(tc.input)
	}
	f.Add("i,f,b\n-0,1e400,TRUE\n+7,-0.0,false\n9223372036854775807,0x1p-2,True\n-9223372036854775808,99999999999999999999,FALSE\n")
	grid := []ingestPoint{{workers: 1, chunkBytes: 1}, {workers: 2, chunkBytes: 7}, {workers: 4, chunkBytes: defaultChunkBytes}}
	f.Fuzz(func(t *testing.T, input string) {
		requireIngestMatchesLegacy(t, input, "fuzz", grid)
	})
}
