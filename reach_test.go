package repro_test

// TestInternalSymbolsReached is a reachability report over the internal/
// API. It type-checks every non-test package of this module and of the
// nested floodbench module with the standard library alone, walks
// references from the program roots, and fails on any top-level internal/
// symbol that no root reaches, unless reachAllowlist admits it.
//
// Roots: the main function of every main package (cmd/, examples/,
// floodbench) and the init functions of every package those link. A
// reached declaration reaches every top-level object it names. A method is
// reached when it is named, or when its receiver type is reached and the
// method belongs to an interface that type implements and reached code
// uses (every standard-library interface counts as used, since the
// standard library may call it). A blank declaration such as
// `var _ I = (*T)(nil)` is a compile-time assertion and reaches nothing.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachReason says why an unreached symbol stays; exactly one field is set.
// A test name is a test, fuzz target or benchmark of the symbol's package,
// or of another internal package when written "<package>.<Test>"; it must
// name the symbol, directly or through a helper in its test files.
type reachReason struct {
	// test is a test of reached code that calls the symbol as a reference
	// implementation or assertion helper.
	test string
	// cite is the paper result the symbol's doc comment cites.
	cite string
	// own lists, space-separated, the tests whose subject the symbol is.
	// The symbol waits to be deleted together with them.
	own string
}

// reachAllowlist admits unreached internal/ symbols, keyed by
// "<package>.<name>" or "<package>.<Type>.<method>" relative to internal/.
// Whatever an entry reaches needs no entry of its own.
var reachAllowlist = map[string]reachReason{
	"balance.State.Loads": {test: "TestNoBalancingOnDisconnectedStatic"},
	"balance.State.Run":   {test: "TestConvergesOnStaticConnectedGraph"},

	"bitset.NewTwoLevel":    {test: "TestTwoLevelSparseSweep"},
	"bitset.Set.ClearAll":   {test: "TestAbsorbMatchesUnionCountClear"},
	"bitset.Set.Count":      {test: "TestSetAgainstMap"},
	"bitset.Set.UnionWith":  {test: "TestAbsorbMatchesUnionCountClear"},
	"bitset.Set.Unset":      {test: "FuzzTwoLevel"},
	"bitset.TwoLevel.Any":   {test: "FuzzTwoLevel"},
	"bitset.TwoLevel.Count": {test: "FuzzTwoLevel"},
	"bitset.TwoLevel.Get":   {test: "FuzzTwoLevel"},

	"campaign.Client.FarmMetrics": {test: "TestDeleteAndMetricsHTTP"},
	"campaign.Client.Metrics":     {test: "TestWorkerHeartbeatsAndMetrics"},
	"campaign.Client.Progress":    {test: "TestLeaseLifecycle"},

	"core.BinomialTailBelow":         {own: "TestBinomialTailBelow"},
	"core.Corollary4Bound":           {cite: "Corollary 4"},
	"core.DegreeExpansionLowerBound": {cite: "Lemma 9"},
	"core.PaleyZygmund":              {cite: "Lemmas 9–10"},
	"core.RWPLowerBound":             {test: "TestRWPBounds"},
	"core.Spread":                    {cite: "Lemma 11"},
	"core.SpreadEpochLength":         {cite: "Lemma 11"},
	"core.SpreadUntilDoubled":        {cite: "Lemma 11"},

	"dyngraph.AverageDegreeOver":    {own: "TestAverageDegreeOver"},
	"dyngraph.IsTIntervalConnected": {own: "TestIntervalConnectivityStatic TestIntervalConnectivityAlternatingTrees TestIntervalConnectivityEdgeCases"},

	"dynwalk.HittingTime": {own: "TestHittingTimeMatchesExactOnStaticCycle TestHittingTimeScalesOnPath TestHittingTimeTrivialAndCapped"},

	"edgemeg.Dense.EdgeCount":      {test: "TestDenseInitModes"},
	"edgemeg.Dense.HasEdge":        {test: "TestDenseNeighborsConsistent"},
	"edgemeg.General.EdgeCount":    {test: "TestGeneralHiddenStates"},
	"edgemeg.General.HasEdge":      {test: "TestGeneralNeighborsSymmetric"},
	"edgemeg.Sparse.EdgeCount":     {test: "TestSparseBirthDeathExtremes"},
	"edgemeg.Sparse.HasEdge":       {test: "TestSparseNeighborsConsistent"},
	"edgemeg.rankIndex.AppendKeys": {test: "FuzzRankIndex"},
	"edgemeg.rankIndex.Len":        {test: "TestRankIndexChurn"},

	"eventwheel.Wheel.Cancel":   {own: "TestWheelSupersedeAndCancel FuzzEventWheel"},
	"eventwheel.Wheel.Len":      {test: "TestWheelResetReuses"},
	"eventwheel.Wheel.NextTick": {test: "TestWheelOverflowBeyondRing"},

	"flood.Result.TimeToFraction": {own: "TestTimeToFraction TestTimeToFractionWithoutTimeline"},
	"flood.GrowthIsMonotone":      {test: "TestTimelineMonotoneProperty"},

	"geometry.CellList.CountWithin": {test: "TestCellListRebuild"},
	"geometry.CellList.Len":         {test: "TestCellListRebuild"},
	"geometry.Point.Add":            {own: "TestPointArithmetic"},
	"geometry.Point.Scale":          {own: "TestPointArithmetic"},
	"geometry.Point.Sub":            {own: "TestPointArithmetic"},
	"geometry.Rect.Shrink":          {own: "TestRectShrink"},

	"graph.Graph.EdgeDensity":  {test: "TestGnpDensity"},
	"graph.Graph.ShortestPath": {own: "TestShortestPathValid TestShortestPathTrivialAndMissing"},

	"markov.Chain.ExpectedHittingTimes":  {own: "TestHittingTimesPathEndToEnd TestHittingTimesCycle TestHittingTimesUnreachable TestHittingTimesLazyDoubles"},
	"markov.Chain.ExpectedMeetingTime":   {own: "TestExpectedMeetingTimeMatchesSimulation TestExpectedMeetingTimeCompleteGraph"},
	"markov.Chain.IsReversible":          {own: "TestIsReversible"},
	"markov.Chain.Lazy":                  {own: "TestLazyPreservesStationary"},
	"markov.Chain.Power":                 {own: "TestPowerMatchesRepeatedMul TestPowerRowStochasticProperty"},
	"markov.Chain.SpectralGapReversible": {own: "TestSpectralGapTwoState TestSpectralGapLazyWalkOnCompleteGraph"},
	"markov.Chain.StationaryPower":       {own: "TestStationaryPowerMatchesExact"},
	"markov.Chain.TVProfile":             {own: "TestTVProfileDecreases"},
	"markov.Sparse.Dense":                {test: "TestSparseTVFromStartMatchesDense"},
	"markov.Sparse.EvolveDist":           {test: "TestSparseEvolveInto"},
	"markov.TwoState.Chain":              {test: "TestMixingTimeMatchesTwoStateClosedForm"},
	"markov.TwoState.OnAfter":            {own: "TestTwoStateClosedForms TestTwoStateOnAfterMatchesMatrixPower"},
	"markov.TwoState.TVAt":               {own: "TestTVProfileDecreases"},
	"markov.UniformChain":                {test: "TestMixingTimeUniformChain"},

	"mobility.DiskRegion":                        {own: "TestDiskRegionGeometry TestDiskSampleUniform TestRegionWaypointStaysInDisk"},
	"mobility.NewRegionWaypoint":                 {own: "TestRegionWaypointStaysInDisk TestRegionWaypointFloodingCompletes TestRegionWaypointCenterBias TestRegionWaypointPanics"},
	"mobility.SquareRegion":                      {own: "TestSquareRegionMatchesSquare"},
	"mobility.Walk.PositionOf":                   {test: "TestWalkMovesOneHop"},
	"mobility.WaypointParams.MixingTimeEstimate": {cite: "Section 4.1"},

	"model.Names":    {test: "TestAdjacencyAppliedDeltasMatchSnapshots"},
	"protocol.Names": {test: "TestDefaultsBuildEveryProtocol"},

	"nodemeg.Empirical":       {own: "TestEmpiricalMatchesExact"},
	"nodemeg.FuncMap":         {test: "TestQAgainstEnumerationFallback"},
	"nodemeg.Sim.StateCounts": {test: "TestBucketsTrackStates"},
	"nodemeg.Sim.WarmUp":      {own: "TestWarmUpAdvances"},

	"randompath.MakeReversible":     {own: "TestMakeReversible TestIsSimpleDetectsRepeats"},
	"randompath.Model.IsReversible": {test: "TestGridLPathsProperties"},
	"randompath.Model.IsSimple":     {test: "TestGridLPathsProperties"},
	"randompath.Model.NewSim":       {own: "TestParityObstructionOnBipartiteWalk TestSimFloodingCompletesOnAugmentedGridWalk"},
	"randompath.Model.PointOfState": {test: "TestChainMovesAlongPath"},
	"randompath.NewGridWalk":        {own: "TestNewGridWalkRejectsIsolated TestEdgePathsIsRandomWalk TestEdgePathsChainUniformStationary"},

	"rng.Alias.Probabilities": {test: "TestAliasProbabilitiesReconstruction"},
	"rng.RNG.Binomial":        {own: "TestBinomialEdgeCases TestBinomialRangeProperty TestBinomialMoments"},
	"rng.RNG.Categorical":     {own: "TestCategoricalFrequencies TestCategoricalPanicsOnZeroTotal"},
	"rng.RNG.Exponential":     {own: "TestExponentialMean"},
	"rng.RNG.NormFloat64":     {test: "stats.TestLinearFitNoisy"},
	"rng.RNG.Perm":            {own: "TestPermIsPermutation"},
	"rng.RNG.Poisson":         {own: "TestPoissonMoments"},
	"rng.RNG.SampleDistinct":  {test: "flood.TestEnginesMatchPreRefactorReference"},
	"rng.RNG.SplitN":          {own: "TestSplitN"},

	"stats.AutocorrelationFn":             {own: "TestAutocorrelationFn"},
	"stats.CI.Contains":                   {own: "TestProportionCI95"},
	"stats.CI.Width":                      {own: "TestCIWidth"},
	"stats.Hist.Add":                      {own: "TestHistBinning"},
	"stats.Hist.Density":                  {own: "TestHistDensityIntegratesToOne TestHistUniformDensityFlat"},
	"stats.Hist.Mode":                     {own: "TestHistMode"},
	"stats.Hist.N":                        {own: "TestHistBinning"},
	"stats.Hist2D.At":                     {test: "mobility.TestWaypointCenterBias"},
	"stats.Hist2D.FractionAbove":          {own: "TestHist2DFractionAbove"},
	"stats.Hist2D.N":                      {test: "mobility.TestWaypointCenterBias"},
	"stats.IQR":                           {own: "TestIQR"},
	"stats.IntegratedAutocorrelationTime": {own: "TestIntegratedAutocorrelationTime"},
	"stats.MeanCI95":                      {own: "TestMeanCI95CoversTruth TestMeanCI95Degenerate"},
	"stats.MedianInts":                    {own: "TestMedianInts"},
	"stats.NewHist":                       {own: "TestHistBinning TestHistPanics"},
	"stats.Online.Add":                    {test: "edgemeg.TestSparseMatchesDenseMoments"},
	"stats.Online.Max":                    {own: "TestOnlineMatchesBatch"},
	"stats.Online.Mean":                   {test: "edgemeg.TestSparseMatchesDenseMoments"},
	"stats.Online.Min":                    {own: "TestOnlineMatchesBatch TestOnlineEmpty"},
	"stats.Online.N":                      {own: "TestOnlineMatchesBatch"},
	"stats.Online.Std":                    {test: "edgemeg.TestSparseMatchesDenseMoments"},
	"stats.ProportionCI95":                {own: "TestProportionCI95"},
	"stats.SemiLogFit":                    {own: "TestSemiLogFit"},
	"stats.SummarizeInts":                 {own: "TestSummarizeInts"},

	"study.Cell.WriteJSONL": {own: "TestWriteJSONL"},
	"study.Grid":            {test: "TestRunSweepMatchesGrid"},
	"study.LoadCheckpoint":  {test: "campaign.TestFarmEndToEnd"},
	"study.WorstSource":     {own: "TestWorstSourceMatchesBruteForce TestWorstSourceAllFailing TestWorstSourcePathEndpoints TestWorstSourceDeterministicAcrossWorkers"},

	"telemetry.Collector.MetricNames": {test: "TestCollectorRuntimeMetrics"},
	"telemetry.Summary.Metric":        {test: "TestSummarizeAndWrite"},
}

const reachModule = "repro"

type reachLoader struct {
	fset  *token.FileSet
	info  *types.Info
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[*types.Package][]*ast.File
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.files[p] = files
	return p, nil
}

// reachDirs maps the import path of every directory holding non-test Go
// files to that directory. floodbench is its own module, repro/floodbench,
// whose replace directive points back here, so its import paths coincide.
func reachDirs(t *testing.T) map[string]string {
	dirs := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err == nil {
			importPath := reachModule
			if path != "." {
				importPath += "/" + filepath.ToSlash(path)
			}
			dirs[importPath] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// reachDecl is one top-level declaration: its defined objects and the
// syntax whose references it makes.
type reachDecl struct {
	objs []types.Object
	node ast.Node
	doc  *ast.CommentGroup
}

// reachSet is the set of declarations reached so far, with the named
// types and interfaces among them.
type reachSet struct {
	info    *types.Info
	declOf  map[types.Object]*reachDecl
	reached map[*reachDecl]bool
	work    []*reachDecl
	named   []*types.Named
	ifaces  []*types.Interface
	isIface map[*types.Interface]bool
	// named[:namedDone] have been matched against ifaces[:ifacesDone].
	namedDone, ifacesDone int
}

func (s *reachSet) clone() *reachSet {
	c := *s
	c.reached = maps.Clone(s.reached)
	c.isIface = maps.Clone(s.isIface)
	c.work = nil
	c.named = slices.Clone(s.named)
	c.ifaces = slices.Clone(s.ifaces)
	return &c
}

func (s *reachSet) add(rd *reachDecl) {
	if !s.reached[rd] {
		s.reached[rd] = true
		s.work = append(s.work, rd)
	}
}

func (s *reachSet) addIface(it *types.Interface) {
	if it.NumMethods() > 0 && !s.isIface[it] {
		s.isIface[it] = true
		s.ifaces = append(s.ifaces, it)
	}
}

func (s *reachSet) visit(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if rd, ok := s.declOf[obj]; ok {
		s.add(rd)
	}
}

// run alternates a worklist pass over references with a pass adding the
// interface methods of reached types, until neither adds anything.
func (s *reachSet) run() {
	for len(s.work) > 0 {
		for len(s.work) > 0 {
			rd := s.work[len(s.work)-1]
			s.work = s.work[:len(s.work)-1]
			for _, obj := range rd.objs {
				if tn, ok := obj.(*types.TypeName); ok {
					if named, ok := tn.Type().(*types.Named); ok {
						if it, ok := named.Underlying().(*types.Interface); ok {
							s.addIface(it)
						} else {
							s.named = append(s.named, named)
						}
					}
				}
			}
			ast.Inspect(rd.node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := s.info.Uses[n]; obj != nil {
						s.visit(obj)
					}
				case *ast.SelectorExpr:
					if sel := s.info.Selections[n]; sel != nil {
						s.visit(sel.Obj())
					}
				case *ast.InterfaceType:
					if it, ok := s.info.Types[n].Type.(*types.Interface); ok {
						s.addIface(it)
					}
				}
				return true
			})
		}
		// Match the pairs not matched before: old types with new
		// interfaces, and new types with every interface.
		nNamed, nIfaces := len(s.named), len(s.ifaces)
		for i, named := range s.named[:nNamed] {
			from := 0
			if i < s.namedDone {
				from = s.ifacesDone
			}
			for _, it := range s.ifaces[from:nIfaces] {
				s.implement(named, it)
			}
		}
		s.namedDone, s.ifacesDone = nNamed, nIfaces
	}
}

// implement reaches named's methods of it when named implements it.
func (s *reachSet) implement(named *types.Named, it *types.Interface) {
	ptr := types.NewPointer(named)
	// Implements is unspecified on an uninstantiated generic type; match
	// such a type's methods by name alone.
	generic := named.TypeParams().Len() > 0
	if !generic && !types.Implements(named, it) && !types.Implements(ptr, it) {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
			s.visit(obj)
		}
	}
}

func TestInternalSymbolsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	// Type-check the pure-Go variants of net and os/user, so the test needs
	// no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &reachLoader{
		fset: fset,
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		},
		std:   importer.ForCompiler(fset, "source", nil),
		dirs:  reachDirs(t),
		pkgs:  map[string]*types.Package{},
		files: map[*types.Package][]*ast.File{},
	}
	var paths []string
	for path := range l.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	// Packages linked into a program: the closure of the main packages'
	// imports.
	linked := map[*types.Package]bool{}
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if linked[p] {
			return
		}
		linked[p] = true
		for _, q := range p.Imports() {
			link(q)
		}
	}
	for _, p := range l.pkgs {
		if p.Name() == "main" {
			link(p)
		}
	}

	// Index declarations by the objects they define, and key the
	// top-level internal/ ones.
	base := &reachSet{
		info:    l.info,
		declOf:  map[types.Object]*reachDecl{},
		reached: map[*reachDecl]bool{},
		isIface: map[*types.Interface]bool{},
	}
	internal := reachModule + "/internal/"
	keyed := map[string]*reachDecl{}
	for p, files := range l.files {
		for _, f := range files {
			for _, d := range f.Decls {
				var rds []*reachDecl
				switch d := d.(type) {
				case *ast.FuncDecl:
					rd := &reachDecl{objs: []types.Object{l.info.Defs[d.Name]}, node: d, doc: d.Doc}
					if d.Recv == nil && linked[p] && (d.Name.Name == "init" || d.Name.Name == "main" && p.Name() == "main") {
						base.add(rd)
						continue
					}
					rds = append(rds, rd)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						rd := &reachDecl{node: spec, doc: d.Doc}
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							rd.objs = append(rd.objs, l.info.Defs[spec.Name])
							if spec.Doc != nil {
								rd.doc = spec.Doc
							}
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								if n.Name != "_" {
									rd.objs = append(rd.objs, l.info.Defs[n])
								}
							}
							if spec.Doc != nil {
								rd.doc = spec.Doc
							}
						}
						rds = append(rds, rd)
					}
				}
				for _, rd := range rds {
					for _, obj := range rd.objs {
						base.declOf[obj] = rd
						if strings.HasPrefix(p.Path(), internal) {
							keyed[reachKey(obj)] = rd
						}
					}
				}
			}
		}
	}

	// The standard library may call any of its interfaces' methods.
	base.addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var stdIfaces func(p *types.Package)
	stdIfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, ours := l.pkgs[p.Path()]; !ours {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						base.addIface(it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			stdIfaces(q)
		}
	}
	for _, p := range l.pkgs {
		stdIfaces(p)
	}

	// Reach from the program roots, then from the allowlist: whatever an
	// allowlisted symbol uses needs no entry of its own.
	base.run()
	var entries []string
	for key := range reachAllowlist {
		entries = append(entries, key)
	}
	sort.Strings(entries)
	all := base.clone()
	for _, key := range entries {
		if rd, ok := keyed[key]; ok {
			all.add(rd)
		}
	}
	all.run()

	var missing []string
	for key, rd := range keyed {
		if !all.reached[rd] {
			missing = append(missing, key+"  "+fset.Position(rd.node.Pos()).String())
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d top-level internal/ symbols are reached by no cmd, example or floodbench root; delete them or allowlist them with a reason:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}

	// Every allowlist entry must be unreached, reached through no other
	// entry (unless each reaches the other), and its reason must hold.
	through := map[string]*reachSet{}
	for _, key := range entries {
		rd, ok := keyed[key]
		if !ok {
			t.Errorf("allowlist entry %s: no such symbol; drop the entry", key)
			continue
		}
		if base.reached[rd] {
			t.Errorf("allowlist entry %s: reached from a root; drop the entry", key)
			continue
		}
		s := base.clone()
		s.add(rd)
		s.run()
		through[key] = s
	}
	for _, key := range entries {
		for _, other := range entries {
			if other != key && through[key] != nil && through[other] != nil &&
				through[key].reached[keyed[other]] && !through[other].reached[keyed[key]] {
				t.Errorf("allowlist entry %s: reached through %s; drop the entry", other, key)
			}
		}
	}
	for _, key := range entries {
		why, rd := reachAllowlist[key], keyed[key]
		if through[key] == nil {
			continue
		}
		pkg := key[:strings.Index(key, ".")]
		name := key[strings.LastIndex(key, ".")+1:]
		switch {
		case why.cite != "" && why.test == "" && why.own == "":
			if rd.doc == nil || !strings.Contains(rd.doc.Text(), why.cite) {
				t.Errorf("allowlist entry %s: doc comment does not cite %q", key, why.cite)
			}
		case why.test != "" && why.cite == "" && why.own == "":
			if !reachTestNames(t, fset, pkg, why.test, name) {
				t.Errorf("allowlist entry %s: test %s does not name %s", key, why.test, name)
			}
		case why.own != "" && why.cite == "" && why.test == "":
			for _, test := range strings.Fields(why.own) {
				if !reachTestNames(t, fset, pkg, test, name) {
					t.Errorf("allowlist entry %s: test %s does not name %s", key, test, name)
				}
			}
		default:
			t.Errorf("allowlist entry %s: give exactly one of test, cite or own", key)
		}
	}
}

// reachKey names a top-level internal/ object as the allowlist does:
// "<package>.<name>", or "<package>.<Type>.<method>" for a method.
func reachKey(obj types.Object) string {
	key := strings.TrimPrefix(obj.Pkg().Path(), reachModule+"/internal/") + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			key += rt.(*types.Named).Obj().Name() + "."
		}
	}
	return key + obj.Name()
}

// reachTestNames reports whether the test function test, declared in the
// _test.go files of internal/<pkg> (or of internal/<p> when test is written
// "<p>.<Test>"), names the identifier name, directly or through functions
// of the same test files.
func reachTestNames(t *testing.T, fset *token.FileSet, pkg, test, name string) bool {
	if i := strings.Index(test, "."); i >= 0 {
		pkg, test = test[:i], test[i+1:]
	}
	matches, err := filepath.Glob(filepath.Join("internal", pkg, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]*ast.FuncDecl{}
	for _, path := range matches {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs[fd.Name.Name] = fd
			}
		}
	}
	seen := map[string]bool{}
	var names func(fn string) bool
	names = func(fn string) bool {
		fd, ok := funcs[fn]
		if !ok || seen[fn] {
			return false
		}
		seen[fn] = true
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == name || names(id.Name)) {
				found = true
			}
			return !found
		})
		return found
	}
	return names(test)
}
