package data

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"

	"catdb/internal/pool"
)

// defaultChunkBytes is the target chunk size; each chunk is extended to the
// next record boundary, so no record straddles two chunks. 4 MiB balances
// scheduling overhead against parse locality: a 1M-row table yields enough
// chunks to keep a many-core box busy without flooding the pool. Output is
// identical at any chunk size (the ingest tests sweep it through
// parseCSVChunkSize).
const defaultChunkBytes = 4 << 20

// errRefused marks an input the tokenizer does not read itself. It never
// reaches a caller: parseCSVChunkSize re-reads such input through
// readCSVLegacy, which owns every error message.
var errRefused = errors.New("data: csv input outside the tokenizer's dialect")

// parseCSVChunkSize parses buf in record-aligned chunks of about chunkBytes
// (the readers pass defaultChunkBytes and workers 0, the pool's default).
// Any input the tokenizer refuses is re-read through readCSVLegacy, so the
// table or error never depends on workers or chunkBytes.
func parseCSVChunkSize(buf []byte, name string, workers, chunkBytes int) (*Table, error) {
	t, err := tokenizeCSV(buf, name, workers, chunkBytes)
	if errors.Is(err, errRefused) {
		return readCSVLegacy(bytes.NewReader(buf), name)
	}
	return t, err
}

// tokenizeCSV reads buf in one tokenizer pass per chunk, in parallel over
// chunks, then builds each column from its fields' offsets, in parallel
// over columns. It returns errRefused for any input outside the dialect
// chunk.tokenize accepts; any other error is a fault of the tokenizer.
func tokenizeCSV(buf []byte, name string, workers, chunkBytes int) (*Table, error) {
	cuts := cutChunks(buf, chunkBytes)
	chunks := make([]chunk, len(cuts)-1)
	err := pool.Each(workers, len(chunks), func(i int) error {
		chunks[i].b = buf[cuts[i]:cuts[i+1]]
		if !chunks[i].tokenize() {
			return errRefused
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The first record is the header; every other record is a row of its
	// width.
	var header []string
	rows := 0
	for i := range chunks {
		ck := &chunks[i]
		switch {
		case ck.width == 0:
			continue
		case header == nil:
			for c := 0; c < ck.width; c++ {
				v, _ := unquote(ck.field(0, c), nil)
				header = append(header, string(v))
			}
			ck.offs = ck.offs[ck.width+1:]
		case ck.width != len(header):
			return nil, errRefused
		}
		ck.row = rows
		rows += ck.records()
	}
	if header == nil {
		return nil, errRefused // no record at all: legacy reports the empty input
	}
	cols, err := pool.Map(workers, len(header), func(c int) (*Column, error) {
		return buildColumn(chunks, c, rows, header[c]), nil
	})
	if err != nil {
		return nil, err
	}
	t := NewTable(name)
	for _, c := range cols {
		if t.AddColumn(c) != nil {
			return nil, errRefused // duplicate name: legacy reports it
		}
	}
	return t, nil
}

// cutChunks splits buf into chunks of at least chunkBytes (>= 1), the last
// excepted, and returns their bounds: chunk i is buf[cuts[i]:cuts[i+1]].
// Each cut follows a '\n' with an even number of quotes before it, so on
// any input the tokenizer accepts it falls between two records.
func cutChunks(buf []byte, chunkBytes int) []int {
	cuts := []int{0}
	for start := 0; ; {
		i := start + chunkBytes - 1 // the earliest '\n' that may end the chunk
		if i >= len(buf) {
			break
		}
		quotes := bytes.Count(buf[start:i], quote)
		for {
			j := bytes.IndexByte(buf[i:], '\n')
			if j < 0 {
				return append(cuts, len(buf))
			}
			quotes += bytes.Count(buf[i:i+j], quote)
			i += j + 1
			if quotes%2 == 0 {
				break
			}
		}
		if i == len(buf) {
			break
		}
		cuts = append(cuts, i)
		start = i
	}
	return append(cuts, len(buf))
}

var quote = []byte{'"'}

// chunk is one record-aligned stretch of the input and its tokens. offs
// holds width+1 offsets per record, relative to b so that no input length
// can wrap them: where the record starts, then where each field ends.
type chunk struct {
	b     []byte
	offs  []uint32
	width int // fields per record; 0 while the chunk has no record
	row   int // the body row of its first record
}

// fieldStops are the bytes that end an unquoted field's scan.
var fieldStops = [256]bool{',': true, '\n': true, '\r': true, '"': true}

// tokenize records the offsets of every record in ck.b. It accepts
// unquoted fields, quoted fields (doubled quotes, and commas and line ends
// inside), "\n" and "\r\n" line ends, and blank lines. It refuses
// anything else: a bare quote, any other '\r', an unterminated quote, or
// a record whose width differs from the chunk's first. encoding/csv reads
// every chunk it accepts to the same fields.
func (ck *chunk) tokenize() bool {
	b := ck.b
	if len(b) > math.MaxUint32 {
		return false
	}
	for pos := 0; pos < len(b); {
		if b[pos] == '\n' { // blank line
			pos++
			continue
		}
		if b[pos] == '\r' && pos+1 < len(b) && b[pos+1] == '\n' {
			pos += 2
			continue
		}
		first := len(ck.offs)
		ck.offs = append(ck.offs, uint32(pos))
		for {
			if pos < len(b) && b[pos] == '"' {
				if pos = closingQuote(b, pos+1); pos < 0 {
					return false
				}
			} else {
				for pos < len(b) && !fieldStops[b[pos]] {
					pos++
				}
			}
			ck.offs = append(ck.offs, uint32(pos))
			if pos == len(b) {
				break
			}
			if b[pos] == ',' {
				pos++
				continue
			}
			if b[pos] == '\r' && pos+1 < len(b) && b[pos+1] == '\n' {
				pos++
			}
			if b[pos] != '\n' {
				return false
			}
			pos++
			break
		}
		width := len(ck.offs) - first - 1
		if ck.width == 0 {
			// Size the offsets for one record per remaining line.
			ck.width = width
			ck.offs = slices.Grow(ck.offs, (bytes.Count(b[pos:], []byte{'\n'})+1)*(width+1))
		} else if width != ck.width {
			return false
		}
	}
	return true
}

// closingQuote returns the offset just past the quote that closes a quoted
// field whose content starts at i, or -1 if the field is unterminated or
// holds a '\r' outside a "\r\n".
func closingQuote(b []byte, i int) int {
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			if i+1 < len(b) && b[i+1] == '"' {
				i++
				continue
			}
			return i + 1
		case '\r':
			if i+1 == len(b) || b[i+1] != '\n' {
				return -1
			}
		}
	}
	return -1
}

func (ck *chunk) records() int { return len(ck.offs) / (ck.width + 1) }

// field returns field c of record r as it stands in the input, quotes
// included.
func (ck *chunk) field(r, c int) []byte {
	o := ck.offs[r*(ck.width+1):]
	start := o[c]
	if c > 0 {
		start++ // past the comma
	}
	return ck.b[start:o[c+1]]
}

// unquote returns a field's value: raw itself when it is unquoted, else its
// content written over scratch without the outer quotes, with each doubled
// quote made one and each "\r\n" made "\n", as encoding/csv reads it. It
// also returns scratch, grown if it had to be.
func unquote(raw, scratch []byte) (v, grown []byte) {
	if len(raw) == 0 || raw[0] != '"' {
		return raw, scratch
	}
	v = scratch[:0]
	for i := 1; i < len(raw)-1; i++ {
		switch raw[i] {
		case '"':
			i++ // the first of a doubled quote
		case '\r':
			continue // tokenize accepts it only before '\n'
		}
		v = append(v, raw[i])
	}
	return v, v
}

// buildColumn builds column c from every chunk's offsets. It decides the
// kind over all cells with InferKind's rules and parses each numeric or
// bool cell once. The first cell that rules out every non-string kind
// stops the parse, so a column whose first value is a string never gets a
// float slab; a string column's values are cut from one buffer holding
// only that column's bytes.
func buildColumn(chunks []chunk, c, rows int, name string) *Column {
	st := &colStore{missing: make([]bool, rows)}
	var scratch, v []byte
	can := canBool | canInt | canFloat
	var x float64
parse:
	for k := range chunks {
		ck := &chunks[k]
		for i, n := 0, ck.records(); i < n; i++ {
			v, scratch = unquote(ck.field(i, c), scratch)
			if v = bytes.TrimSpace(v); len(v) == 0 {
				st.missing[ck.row+i] = true
				continue
			}
			if can, x = narrow(can, string(v)); can == 0 {
				break parse
			}
			if st.nums == nil {
				st.nums = make([]float64, rows)
			}
			st.nums[ck.row+i] = x
		}
	}
	if can != 0 && st.nums != nil {
		return &Column{Name: name, Kind: kindOf(can), store: st}
	}

	st.nums = nil
	st.strs = make([]string, rows)
	size := 0
	for k := range chunks {
		ck := &chunks[k]
		for i, n := 0, ck.records(); i < n; i++ {
			size += len(ck.field(i, c))
		}
	}
	var sb strings.Builder
	sb.Grow(size) // never outgrown, so every value stays in one buffer
	for k := range chunks {
		ck := &chunks[k]
		for i, n := 0, ck.records(); i < n; i++ {
			v, scratch = unquote(ck.field(i, c), scratch)
			if len(bytes.TrimSpace(v)) == 0 {
				st.missing[ck.row+i] = true
				continue
			}
			at := sb.Len()
			sb.Write(v)
			st.strs[ck.row+i] = sb.String()[at:]
		}
	}
	return &Column{Name: name, Kind: KindString, store: st}
}
