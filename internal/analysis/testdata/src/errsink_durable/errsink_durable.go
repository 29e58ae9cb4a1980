// Package errsinkdurable exercises the errsink analyzer on callers of
// the shared write path: a discarded error from internal/durable is a
// finding like one from the os or io calls it wraps.
package errsinkdurable

import (
	"io"

	"repro/internal/durable"
)

// Save discards each durable result once.
func Save(w io.Writer, path string, body []byte) {
	write := func(f durable.File) error {
		_, err := f.Write(body)
		return err
	}
	durable.WriteFrame(w, "MAGIC001", body)    // want `discarded error from durable.WriteFrame`
	durable.WriteFile(durable.OS, path, write) // want `discarded error from durable.WriteFile`
	_, _ = durable.WriteFrame(w, "", body)     // explicit, visible discard: exempt
}
