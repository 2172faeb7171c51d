package core

// StrategyID enumerates the planner's strategies.  Their wire names, the
// keys of provenance traces and `embedctl explain` output, are
// strategyNames, keyed by constant, so adding a strategy means adding a
// constant and its name here, a case in planContext.search and a stage in
// a pipeline that some shape chooses (see strategy.go).
type StrategyID int

const (
	StrategyDirect StrategyID = iota
	StrategyFactor
	StrategyExtend
	StrategyHighDim
	StrategyPairGray
	StrategySplit3D
	StrategyFold
)

var strategyNames = [...]string{
	StrategyDirect: "direct", StrategyFactor: "factor", StrategyExtend: "extend",
	StrategyHighDim: "highdim", StrategyPairGray: "pair+gray", StrategySplit3D: "split3d",
	StrategyFold: "fold",
}

// String returns the wire name of id ("unknown" out of range).
func (id StrategyID) String() string {
	if id < 0 || int(id) >= len(strategyNames) {
		return "unknown"
	}
	return strategyNames[id]
}
