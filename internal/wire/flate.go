package wire

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Pooled flate plumbing behind a compressed frame's payload: one writer
// pool, one reader pool, append-based in/out so steady-state compression
// allocates nothing beyond buffer growth. No caller compresses today (the
// bench probe frames with compressMin 0).

// byteWriter appends everything written to it onto buf.
type byteWriter struct{ buf []byte }

func (w *byteWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// deflater pairs a flate writer with its append sink so Reset never makes
// the sink escape per call.
type deflater struct {
	sink byteWriter
	w    *flate.Writer
}

var deflaters sync.Pool

// AppendDeflate compresses src with flate (BestSpeed), appending the
// compressed stream to dst. It reports false — returning dst unchanged —
// when compression does not shrink src.
func AppendDeflate(dst, src []byte) ([]byte, bool) {
	d, _ := deflaters.Get().(*deflater)
	if d == nil {
		d = &deflater{}
		d.w, _ = flate.NewWriter(&d.sink, flate.BestSpeed)
	}
	d.sink.buf = dst
	d.w.Reset(&d.sink)
	_, werr := d.w.Write(src)
	cerr := d.w.Close()
	out := d.sink.buf
	d.sink.buf = nil
	deflaters.Put(d)
	if werr != nil || cerr != nil || len(out)-len(dst) >= len(src) {
		return dst, false
	}
	return out, true
}

// inflater pairs a pooled flate reader with its byte source.
type inflater struct {
	br bytes.Reader
	r  io.ReadCloser
}

var inflaters sync.Pool

// InflateInto decompresses a flate stream into a buffer of exactly rawLen
// bytes, reusing scratch's capacity when it suffices. Streams that decode
// to any other length are rejected.
func InflateInto(scratch, src []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 {
		return nil, fmt.Errorf("wire: negative raw length %d", rawLen)
	}
	inf, _ := inflaters.Get().(*inflater)
	if inf == nil {
		inf = &inflater{}
		inf.br.Reset(src)
		inf.r = flate.NewReader(&inf.br)
	} else {
		inf.br.Reset(src)
		if err := inf.r.(flate.Resetter).Reset(&inf.br, nil); err != nil {
			return nil, fmt.Errorf("wire: inflate reset: %w", err)
		}
	}
	defer inflaters.Put(inf)
	out := scratch
	if cap(out) < rawLen {
		out = make([]byte, rawLen)
	}
	out = out[:rawLen]
	if _, err := io.ReadFull(inf.r, out); err != nil {
		return nil, fmt.Errorf("wire: inflate: %w", err)
	}
	var one [1]byte
	if n, _ := inf.r.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("wire: compressed payload longer than declared %d bytes", rawLen)
	}
	return out, nil
}
