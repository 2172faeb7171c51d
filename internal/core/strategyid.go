package core

// StrategyID enumerates the planner's strategies.  The wire names — the
// keys of provenance traces and `embedctl explain` output — are generated
// from this constant block (strategyid_enumgen.go), so adding a strategy
// means adding a constant here, a case in planContext.search and a stage
// in a pipeline (see strategy.go).
type StrategyID int

const (
	StrategyDirect StrategyID = iota
	StrategySolver
	StrategyFactor
	StrategyExtend
	StrategyHighDim
	StrategyPairGray // pair+gray
	StrategySplit2D
	StrategySplit3D
	StrategyFold
)
