package data

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"strconv"
	"strings"

	"catdb/internal/pool"
)

// IngestOptions tunes the chunked CSV reader. The zero value is the
// recommended configuration: parallel parse over GOMAXPROCS workers.
type IngestOptions struct {
	// Workers bounds the chunk-parse fan-out: 0 means GOMAXPROCS, 1 forces
	// the serial streaming path (same chunking, one goroutine) — the
	// pool-wide convention.
	Workers int
}

const (
	// defaultChunkBytes is the target chunk size; chunks are extended to
	// the next record boundary so no record straddles two chunks. 4 MiB
	// balances scheduling overhead against parse locality: a 1M-row table
	// yields enough chunks to keep a many-core box busy without flooding
	// the pool. Output is identical at any chunk size (the ingest tests
	// sweep it through parseCSVChunkSize).
	defaultChunkBytes = 4 << 20
	// sniffRecords is how many leading records the mode sniffer inspects
	// to pick per-column storage (numeric slab vs string slab) before the
	// parallel parse commits cells directly into preallocated columns.
	sniffRecords = 512
)

// errIngestShape signals that a chunk parsed to a different record count
// than the boundary scanner predicted. It is never surfaced: any chunked
// failure re-parses through the legacy serial reader, which either
// succeeds (scanner limitation) or reproduces the canonical error.
var errIngestShape = errors.New("data: ingest chunk shape mismatch")

// chunkSpan is a byte range of the input holding whole CSV records:
// records complete records starting at global body row rowOff.
type chunkSpan struct {
	start, end int
	records    int
	rowOff     int
}

// scanCSVChunks walks the buffer once with a quote-state toggle and
// returns the header record's span plus record-aligned body chunks of
// roughly chunkBytes each. The scanner mirrors encoding/csv's framing
// rules: newlines inside quoted fields do not terminate records, doubled
// quotes stay inside the quoted state's net effect, and lines that are
// empty ("" or a bare "\r" from a CRLF ending) produce no record. Inputs
// that desynchronize the toggle (bare quotes in unquoted fields) are
// exactly the inputs encoding/csv rejects, so the downstream chunk parse
// fails and ingest falls back to the legacy reader.
func scanCSVChunks(buf []byte, chunkBytes int) (header chunkSpan, spans []chunkSpan, totalBody int) {
	inQuotes := false
	headerDone := false
	recStart := 0
	chunkStart := 0
	recs := 0
	rowOff := 0

	endRecord := func(end int) {
		if !headerDone {
			headerDone = true
			header = chunkSpan{start: 0, end: end, records: 1}
			chunkStart = end
			return
		}
		recs++
	}
	closeChunk := func(end int) {
		spans = append(spans, chunkSpan{start: chunkStart, end: end, records: recs, rowOff: rowOff})
		rowOff += recs
		chunkStart = end
		recs = 0
	}

	n := len(buf)
	for i := 0; i < n; i++ {
		c := buf[i]
		if inQuotes {
			if c == '"' {
				inQuotes = false
			}
			continue
		}
		switch c {
		case '"':
			inQuotes = true
		case '\n':
			seg := buf[recStart:i]
			if !(len(seg) == 0 || (len(seg) == 1 && seg[0] == '\r')) {
				endRecord(i + 1)
			}
			recStart = i + 1
			if headerDone && recs > 0 && i+1-chunkStart >= chunkBytes {
				closeChunk(i + 1)
			}
		}
	}
	if recStart < n {
		// Any unterminated tail is a record (or a parse error) to
		// encoding/csv — only complete "\r\n" / "\n" lines are skipped as
		// empty, and those were handled at their '\n'.
		endRecord(n)
	}
	if headerDone && chunkStart < n && (recs > 0 || len(spans) == 0) {
		closeChunk(n)
	}
	for _, sp := range spans {
		totalBody += sp.records
	}
	return header, spans, totalBody
}

// colMode is the storage the sniffer commits a column to before the
// parallel parse: numeric and bool columns go straight into float slabs,
// string columns into string slabs. modeStrFlag is the undecided case
// (no non-missing value in the sniff window): cells land in the string
// slab and full kind flags are tracked so a numeric column can still be
// recovered without re-reading the file.
type colMode uint8

const (
	modeNum colMode = iota
	modeBool
	modeStr
	modeStrFlag
)

// kindFlags is InferKind's per-value state in mergeable form: each flag
// is an AND across values, any an OR, so per-chunk flags merge
// commutatively into exactly the verdict a whole-column InferKind pass
// would reach.
type kindFlags struct {
	isBool, isInt, isFloat, any bool
}

func newKindFlags() kindFlags { return kindFlags{isBool: true, isInt: true, isFloat: true} }

// observe folds one trimmed non-missing value into the flags, mirroring
// the InferKind loop body.
func (f *kindFlags) observe(v string) {
	f.any = true
	if f.isBool {
		lv := strings.ToLower(v)
		if lv != "true" && lv != "false" {
			f.isBool = false
		}
	}
	if f.isInt {
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			f.isInt = false
		}
	}
	if f.isFloat {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			f.isFloat = false
		}
	}
}

func (f *kindFlags) merge(o kindFlags) {
	f.isBool = f.isBool && o.isBool
	f.isInt = f.isInt && o.isInt
	f.isFloat = f.isFloat && o.isFloat
	f.any = f.any || o.any
}

// kind resolves merged flags with InferKind's precedence.
func (f kindFlags) kind() Kind {
	if !f.any {
		return KindString
	}
	switch {
	case f.isBool:
		return KindBool
	case f.isInt:
		return KindInt
	case f.isFloat:
		return KindFloat
	default:
		return KindString
	}
}

// sniffModes parses up to sniffRecords leading body records and assigns
// each column a storage mode from the evidence so far. A wrong guess is
// never wrong output — only wasted work: the merged full-table flags
// decide the final kind, and columns whose slab can't serve that kind
// are re-read in a second pass.
func sniffModes(buf []byte, ncols int, spans []chunkSpan) []colMode {
	flags := make([]kindFlags, ncols)
	for i := range flags {
		flags[i] = newKindFlags()
	}
	if len(spans) > 0 {
		cr := csv.NewReader(bytes.NewReader(buf[spans[0].start:]))
		cr.ReuseRecord = true
		cr.FieldsPerRecord = ncols
		for seen := 0; seen < sniffRecords; seen++ {
			rec, err := cr.Read()
			if err != nil {
				break
			}
			for col, v := range rec {
				if t := strings.TrimSpace(v); t != "" {
					flags[col].observe(t)
				}
			}
		}
	}
	modes := make([]colMode, ncols)
	for col, f := range flags {
		switch {
		case !f.any:
			modes[col] = modeStrFlag
		case f.isBool:
			modes[col] = modeBool
		case f.isInt || f.isFloat:
			modes[col] = modeNum
		default:
			modes[col] = modeStr
		}
	}
	return modes
}

// ingestJob carries the shared state of one chunked parse: every chunk
// writes cells into disjoint row ranges of the same preallocated slabs
// (no per-chunk builders, no reassembly copy) and deposits its kind
// flags at its own index.
type ingestJob struct {
	buf   []byte
	ncols int
	modes []colMode
	spans []chunkSpan
	nums  [][]float64
	strs  [][]string
	miss  [][]bool
	flags [][]kindFlags
}

func newIngestJob(buf []byte, ncols int, modes []colMode, spans []chunkSpan, rows int) *ingestJob {
	j := &ingestJob{
		buf:   buf,
		ncols: ncols,
		modes: modes,
		spans: spans,
		nums:  make([][]float64, ncols),
		strs:  make([][]string, ncols),
		miss:  make([][]bool, ncols),
		flags: make([][]kindFlags, len(spans)),
	}
	for col := 0; col < ncols; col++ {
		j.miss[col] = make([]bool, rows)
		switch modes[col] {
		case modeNum, modeBool:
			j.nums[col] = make([]float64, rows)
		default:
			j.strs[col] = make([]string, rows)
		}
	}
	return j
}

// parseChunk parses one chunk with encoding/csv (ReuseRecord: the field
// strings it yields are substrings of a fresh per-record allocation, so
// retaining them in the string slab is safe) and writes cells straight
// into the job's slabs at the chunk's row offsets.
func (j *ingestJob) parseChunk(ci int) error {
	sp := j.spans[ci]
	cr := csv.NewReader(bytes.NewReader(j.buf[sp.start:sp.end]))
	cr.ReuseRecord = true
	cr.FieldsPerRecord = j.ncols
	fl := make([]kindFlags, j.ncols)
	for i := range fl {
		fl[i] = newKindFlags()
	}
	j.flags[ci] = fl

	row := sp.rowOff
	end := sp.rowOff + sp.records
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if row >= end {
			return errIngestShape
		}
		for col, v := range rec {
			t := strings.TrimSpace(v)
			if t == "" {
				j.miss[col][row] = true
				continue
			}
			switch j.modes[col] {
			case modeNum:
				f := &fl[col]
				f.any = true
				if f.isBool {
					lv := strings.ToLower(t)
					if lv != "true" && lv != "false" {
						f.isBool = false
					}
				}
				if f.isInt {
					if _, err := strconv.ParseInt(t, 10, 64); err != nil {
						f.isInt = false
					}
				}
				if f.isFloat {
					x, err := strconv.ParseFloat(t, 64)
					if err != nil {
						f.isFloat = false
					} else {
						j.nums[col][row] = x
					}
				}
			case modeBool:
				f := &fl[col]
				f.any = true
				if f.isInt {
					if _, err := strconv.ParseInt(t, 10, 64); err != nil {
						f.isInt = false
					}
				}
				if f.isFloat {
					if _, err := strconv.ParseFloat(t, 64); err != nil {
						f.isFloat = false
					}
				}
				lv := strings.ToLower(t)
				switch lv {
				case "true":
					j.nums[col][row] = 1
				case "false":
					// zero value already in place
				default:
					f.isBool = false
				}
			case modeStr:
				j.strs[col][row] = v
			case modeStrFlag:
				fl[col].observe(t)
				j.strs[col][row] = v
			}
		}
		row++
	}
	if row != end {
		return errIngestShape
	}
	return nil
}

// rereadColumns runs a second parallel pass collecting the raw strings of
// the columns whose sniffed slab cannot serve their final kind (e.g. a
// column that looked numeric for the whole sniff window but holds strings
// later on). Only the listed columns allocate.
func (j *ingestJob) rereadColumns(workers int, cols []int, rows int) ([][]string, error) {
	raws := make([][]string, j.ncols)
	for _, col := range cols {
		raws[col] = make([]string, rows)
	}
	err := pool.Each(workers, len(j.spans), func(ci int) error {
		sp := j.spans[ci]
		cr := csv.NewReader(bytes.NewReader(j.buf[sp.start:sp.end]))
		cr.ReuseRecord = true
		cr.FieldsPerRecord = j.ncols
		row := sp.rowOff
		end := sp.rowOff + sp.records
		for {
			rec, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if row >= end {
				return errIngestShape
			}
			for _, col := range cols {
				raws[col][row] = rec[col]
			}
			row++
		}
		if row != end {
			return errIngestShape
		}
		return nil
	})
	return raws, err
}

// parseCSVChunkSize is the chunked ingest entry point (the readers pass
// defaultChunkBytes): it parses buf in chunks of about chunkBytes and,
// on any chunked-path failure (csv syntax error, scanner disagreement,
// shape mismatch), re-parses through the legacy serial reader so errors
// and edge-case behaviour match it exactly.
func parseCSVChunkSize(buf []byte, name string, workers, chunkBytes int) (*Table, error) {
	t, err := parseCSVChunked(buf, name, workers, chunkBytes)
	if err != nil {
		return readCSVLegacy(bytes.NewReader(buf), name)
	}
	return t, nil
}

// parseCSVChunked performs the scan → sniff → parallel parse → merge
// pipeline. The output is deterministic in workers and chunkBytes by
// construction: chunk boundaries depend only on the bytes and chunk
// size, every chunk writes a disjoint row range, and flag merging is
// order-independent.
func parseCSVChunked(buf []byte, name string, workers, chunkBytes int) (*Table, error) {
	headerSpan, spans, rows := scanCSVChunks(buf, chunkBytes)
	if headerSpan.records == 0 {
		return nil, errIngestShape // empty input; legacy reader owns the message
	}

	hr := csv.NewReader(bytes.NewReader(buf[headerSpan.start:headerSpan.end]))
	header, err := hr.Read()
	if err != nil {
		return nil, err
	}
	ncols := len(header)

	modes := sniffModes(buf, ncols, spans)
	job := newIngestJob(buf, ncols, modes, spans, rows)
	if err := pool.Each(workers, len(spans), job.parseChunk); err != nil {
		return nil, err
	}

	merged := make([]kindFlags, ncols)
	for col := range merged {
		merged[col] = newKindFlags()
		merged[col].any = false
	}
	for _, fl := range job.flags {
		for col := range fl {
			merged[col].merge(fl[col])
		}
	}

	kinds := make([]Kind, ncols)
	var reread []int
	for col := 0; col < ncols; col++ {
		kind := merged[col].kind()
		if modes[col] == modeStr {
			kind = KindString
		}
		kinds[col] = kind
		if !modeServes(modes[col], kind) {
			reread = append(reread, col)
		}
	}

	var raws [][]string
	if len(reread) > 0 {
		raws, err = job.rereadColumns(workers, reread, rows)
		if err != nil {
			return nil, err
		}
	}

	t := NewTable(name)
	for col := 0; col < ncols; col++ {
		var c *Column
		switch {
		case raws != nil && raws[col] != nil:
			c = ParseColumn(header[col], kinds[col], raws[col])
		case kinds[col] == KindString:
			c = &Column{Name: header[col], Kind: KindString, store: &colStore{strs: job.strs[col], missing: job.miss[col]}}
		case modes[col] == modeStrFlag:
			// Undecided column that turned out numeric/bool: its raw
			// strings are in the string slab; ParseColumn converts.
			c = ParseColumn(header[col], kinds[col], job.strs[col])
		default:
			c = &Column{Name: header[col], Kind: kinds[col], store: &colStore{nums: job.nums[col], missing: job.miss[col]}}
		}
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// modeServes reports whether a column parsed under mode holds a slab that
// can directly back the final kind without a re-read: string kinds need a
// string slab, bool needs the true/false encoding, and int/float need the
// ParseFloat slab. Undecided columns (modeStrFlag) always serve — their
// raw strings feed ParseColumn directly when the final kind is numeric.
func modeServes(m colMode, k Kind) bool {
	switch m {
	case modeNum:
		return k == KindInt || k == KindFloat
	case modeBool:
		return k == KindBool
	default:
		return true
	}
}
