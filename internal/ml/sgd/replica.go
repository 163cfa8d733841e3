package sgd

import (
	"fmt"
	"math"

	"db4ml/internal/itx"
	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

// replicaSet is the Hogwild++ port's storage: one replica of the
// GlobalParameter table per NUMA region plus a Token table whose single
// row names the region allowed to mix next. The paper mimics Hogwild++'s
// std::atomic token with "an additional relation where each worker has a
// separate row" — here the token relation is one row updated through the
// same iterative-record primitives as the model itself.
type replicaSet struct {
	tables   []*table.Table
	tokenTbl *table.Table
	features int
	recs     [][]*storage.IterativeRecord // [region][param]
	token    *storage.IterativeRecord
}

// newReplicaSet loads one replica of the parameter table per region plus
// the Token relation. Call before the uber-transaction begins so its
// snapshot includes these rows.
func newReplicaSet(mgr *txn.Manager, base *Tables, regions int) (*replicaSet, error) {
	rs := &replicaSet{features: base.Features}
	var loadErr error
	reps := make([]*table.Table, regions)
	tokenTbl := table.New("Token", table.MustSchema(
		table.Column{Name: "Owner", Type: table.Int64},
	))
	mgr.PublishAt(func(ts storage.Timestamp) {
		for r := 0; r < regions; r++ {
			rep := table.New(fmt.Sprintf("GlobalParameter_%d", r), base.Params.Schema())
			p := rep.Schema().NewPayload()
			for i := 0; i < base.Features; i++ {
				p.SetInt64(ColParamID, int64(i))
				p.SetFloat64(ColValue, 0)
				if _, err := rep.Append(ts, p); err != nil {
					loadErr = err
					return
				}
			}
			reps[r] = rep
		}
		tp := tokenTbl.Schema().NewPayload()
		tp.SetInt64(0, 0) // region 0 holds the token initially
		if _, err := tokenTbl.Append(ts, tp); err != nil {
			loadErr = err
		}
	})
	if loadErr != nil {
		return nil, loadErr
	}
	rs.tables = reps
	rs.tokenTbl = tokenTbl
	return rs, nil
}

// attachments lists every replica (at the isolation level's default slot
// count) and the single-slot token relation.
func (rs *replicaSet) attachments() []itx.Attachment {
	out := make([]itx.Attachment, 0, len(rs.tables)+1)
	for _, rep := range rs.tables {
		out = append(out, itx.Attachment{Table: rep})
	}
	return append(out, itx.Attachment{Table: rs.tokenTbl, Versions: 1})
}

// resolve caches the record handles the sub-transactions use; call it once
// the attachments are installed.
func (rs *replicaSet) resolve() {
	rs.token = rs.tokenTbl.IterRecord(0)
	rs.recs = make([][]*storage.IterativeRecord, len(rs.tables))
	for r, rep := range rs.tables {
		rs.recs[r] = make([]*storage.IterativeRecord, rs.features)
		for i := range rs.recs[r] {
			rs.recs[r][i] = rep.IterRecord(table.RowID(i))
		}
	}
}

// maybeMix checks the token relation and, if this region owns the token,
// blends its replica with the ring successor's (dst' = (1-β)dst + βsrc,
// src' = βdst + (1-β)src) and passes the token on. All accesses go through
// the context under the asynchronous level, so stores are immediate and
// lock-free like Hogwild++'s.
func (rs *replicaSet) maybeMix(ctx *itx.Ctx, region int, beta float64) {
	if len(rs.tables) < 2 {
		return
	}
	owner := int64(rs.token.LoadRelaxed(0))
	if owner != int64(region) {
		return
	}
	next := (region + 1) % len(rs.tables)
	src, dst := rs.recs[region], rs.recs[next]
	for i := range src {
		s := math.Float64frombits(ctx.ReadCol(src[i], ColValue))
		d := math.Float64frombits(ctx.ReadCol(dst[i], ColValue))
		ctx.WriteCol(dst[i], ColValue, math.Float64bits((1-beta)*d+beta*s))
		ctx.WriteCol(src[i], ColValue, math.Float64bits(beta*d+(1-beta)*s))
	}
	rs.token.StoreRelaxed(0, uint64(next))
}
