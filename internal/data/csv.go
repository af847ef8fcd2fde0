package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// WriteCSV writes the table as CSV with a header row. Missing cells are
// written as empty strings.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return fmt.Errorf("data: write csv header: %w", err)
	}
	row := make([]string, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		for c, col := range t.Cols {
			row[c] = col.ValueString(r)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("data: write csv row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to path, creating or truncating it.
func WriteCSVFile(path string, t *Table) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("data: %w", err)
	}
	defer f.Close()
	if err := WriteCSV(f, t); err != nil {
		return err
	}
	return f.Close()
}

// ReadCSV parses a CSV stream with a header row into a table, inferring the
// narrowest kind per column (bool, int, float, string). Empty cells become
// missing values. The stream is read once into memory and tokenized in
// record-aligned chunks in parallel (see parseCSVChunkSize); the table and
// any error are those of the historical serial reader.
func ReadCSV(r io.Reader, name string) (*Table, error) {
	buf, err := slurp(r)
	if err != nil {
		return nil, fmt.Errorf("data: read csv %q: %w", name, err)
	}
	return parseCSVChunkSize(buf, name, 0, defaultChunkBytes)
}

// slurp reads r to EOF. When the reader knows its remaining size
// (bytes.Reader, strings.Reader, bytes.Buffer all expose Len) the
// destination is allocated once up front; io.ReadAll's append-growth
// would otherwise cumulatively allocate several times the input size on
// large tables.
func slurp(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		buf := make([]byte, l.Len())
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		// Guard against readers that grow after Len (e.g. a Buffer being
		// written concurrently is unsupported, but a short final read is
		// cheap to confirm).
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		return append(buf, rest...), nil
	}
	return io.ReadAll(r)
}

// readCSVLegacy is the historical ReadAll-based serial reader. It is the
// semantic reference: the tokenizer hands it every input it refuses, so it
// owns every error message, and the equivalence tests pin the tokenizer's
// tables against it.
func readCSVLegacy(r io.Reader, name string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("data: read csv %q: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("data: read csv %q: empty input", name)
	}
	header := records[0]
	body := records[1:]
	t := NewTable(name)
	for ci, colName := range header {
		raw := make([]string, len(body))
		for ri, rec := range body {
			if ci < len(rec) {
				raw[ri] = rec[ci]
			}
		}
		kind := InferKind(raw)
		if err := t.AddColumn(ParseColumn(colName, kind, raw)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ReadCSVFile reads the CSV file at path into a table named after the file.
func ReadCSVFile(path string) (*Table, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("data: %w", err)
	}
	return parseCSVChunkSize(buf, path, 0, defaultChunkBytes)
}
