package sparse

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrMatrixMarket reports a malformed Matrix Market stream.
var ErrMatrixMarket = errors.New("sparse: malformed Matrix Market input")

// ReadMatrixMarket parses a Matrix Market "coordinate" stream into a CSR
// matrix. Supported qualifiers: real/integer/pattern values and
// general/symmetric/skew-symmetric symmetry. Pattern entries get value 1.
// Symmetric inputs are expanded to full storage (the SuiteSparse matrices
// the paper uses are frequently stored symmetric).
func ReadMatrixMarket[T Float](r io.Reader) (*CSR[T], error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty input", ErrMatrixMarket)
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) != 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("%w: bad header %q", ErrMatrixMarket, sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("%w: only coordinate format supported, got %q", ErrMatrixMarket, header[2])
	}
	field, symmetry := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("%w: unsupported field %q", ErrMatrixMarket, field)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("%w: unsupported symmetry %q", ErrMatrixMarket, symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: missing size line", ErrMatrixMarket)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("%w: bad size line %q", ErrMatrixMarket, line)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("%w: negative size", ErrMatrixMarket)
	}
	if symmetry != "general" && rows != cols {
		return nil, fmt.Errorf("%w: %s matrix must be square, got %dx%d", ErrMatrixMarket, symmetry, rows, cols)
	}

	b := NewBuilder[T](rows, cols)
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("%w: short entry line %q", ErrMatrixMarket, line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("%w: bad row in %q", ErrMatrixMarket, line)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("%w: bad column in %q", ErrMatrixMarket, line)
		}
		var v float64 = 1
		if field != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad value in %q", ErrMatrixMarket, line)
			}
		}
		i-- // Matrix Market is 1-based
		j--
		if i < 0 || i >= rows || j < 0 || j >= cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) out of range %dx%d", ErrMatrixMarket, i+1, j+1, rows, cols)
		}
		b.Add(i, j, T(v))
		if i != j {
			switch symmetry {
			case "symmetric":
				b.Add(j, i, T(v))
			case "skew-symmetric":
				b.Add(j, i, T(-v))
			}
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read != nnz {
		return nil, fmt.Errorf("%w: declared %d entries, found %d", ErrMatrixMarket, nnz, read)
	}
	return b.BuildCSR(), nil
}

// WriteMatrixMarket writes the matrix as "coordinate real general".
func WriteMatrixMarket[T Float](w io.Writer, m *CSR[T]) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.ColIdx[k]+1, float64(m.Val[k])); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
