package loadgen

import (
	"symmeter/internal/symbolic"
	"symmeter/internal/timeseries"
	"symmeter/pkg/client"
)

// sensor is the meter side of the §2 protocol: it encodes raw measurements
// into one symbol per window and ships them over a Session in batches of
// up to batchSize consecutive windows. A data gap ends the pending batch
// early, so the server reconstructs every timestamp as firstT + i*window.
type sensor struct {
	sess   *client.Session
	enc    *symbolic.Encoder
	window int64

	batch       []symbolic.Symbol
	batchFirstT int64
	nextT       int64
}

// newSensor announces table on sess and returns a sensor encoding with it.
func newSensor(sess *client.Session, table *symbolic.Table, window int64) (*sensor, error) {
	if err := sess.PushTable(table); err != nil {
		return nil, err
	}
	return &sensor{
		sess:   sess,
		enc:    symbolic.NewEncoder(table, window),
		window: window,
		batch:  make([]symbolic.Symbol, 0, batchSize),
	}, nil
}

// push feeds one measurement; completed windows are buffered and shipped
// as batches fill or gaps break consecutiveness.
func (s *sensor) push(p timeseries.Point) error {
	sp, ok, err := s.enc.Push(p)
	if err != nil || !ok {
		return err
	}
	return s.buffer(sp)
}

func (s *sensor) buffer(sp symbolic.SymbolPoint) error {
	if len(s.batch) > 0 && sp.T != s.nextT {
		if err := s.flush(); err != nil {
			return err
		}
	}
	if len(s.batch) == 0 {
		s.batchFirstT = sp.T
	}
	s.batch = append(s.batch, sp.S)
	s.nextT = sp.T + s.window
	if len(s.batch) >= batchSize {
		return s.flush()
	}
	return nil
}

// flush ships the pending batch, if any.
func (s *sensor) flush() error {
	if len(s.batch) == 0 {
		return nil
	}
	err := s.sess.Append(s.batchFirstT, s.window, s.batch)
	s.batch = s.batch[:0]
	return err
}

// drain ships everything encoded so far: the encoder's partial window and
// the pending batch.
func (s *sensor) drain() error {
	if sp, ok := s.enc.Flush(); ok {
		if err := s.buffer(sp); err != nil {
			return err
		}
	}
	return s.flush()
}

// updateTable resends a new lookup table (the §2/§4 adaptive path). Every
// symbol encoded with the old table — including the partial window, so no
// window straddles tables — is shipped first.
func (s *sensor) updateTable(table *symbolic.Table) error {
	if err := s.drain(); err != nil {
		return err
	}
	if err := s.sess.PushTable(table); err != nil {
		return err
	}
	s.enc = symbolic.NewEncoder(table, s.window)
	return nil
}
