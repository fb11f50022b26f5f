package core

import "flowrel/internal/stats"

// Process-wide registry metrics (the counter catalogue lives in
// docs/OBSERVABILITY.md). All of them are charged once per compile, per
// side build, or per evaluation — never inside the enumeration loops — so
// the cost is a handful of atomic adds per solver call.
var (
	mCompiles          = stats.Default.Counter("core.compiles")
	mCompileTime       = stats.Default.Timer("core.compile_time")
	mCutSearchTime     = stats.Default.Timer("core.cut_search_time")
	mSideConfigs       = stats.Default.Counter("core.side_configs")
	mMaxFlowCalls      = stats.Default.Counter("core.max_flow_calls")
	mAugmentingPaths   = stats.Default.Counter("core.augmenting_paths")
	mRealizationChecks = stats.Default.Counter("core.realization_checks")
	mEvals             = stats.Default.Counter("core.evals")
	mEvalBatches       = stats.Default.Counter("core.eval_batches")
	mPrunedCapacity    = stats.Default.Counter("core.pruned_capacity")
	mPrunedClosure     = stats.Default.Counter("core.pruned_closure")
	mFrontierMaxFlow   = stats.Default.Counter("core.frontier_max_flow_calls")
	mKernelBuilds      = stats.Default.Counter("core.kernel_builds")
	mKernelBuildTime   = stats.Default.Timer("core.kernel_build_time")
	mKernelTermEntries = stats.Default.Counter("core.kernel_terms")
	mEvalBlocks        = stats.Default.Counter("core.eval_blocks")
	mKernelLanes       = stats.Default.Counter("core.kernel_lanes")
	mSegmentSums       = stats.Default.Counter("core.eval_segment_sums")
	mDeltaCompiles     = stats.Default.Counter("core.delta_compiles")
	mDeltaFallbacks    = stats.Default.Counter("core.delta_fallbacks")
	mDeltaReused       = stats.Default.Counter("core.delta_reused_checks")
	mDeltaTime         = stats.Default.Timer("core.delta_compile_time")
)
