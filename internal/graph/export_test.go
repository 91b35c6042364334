package graph

// Oracle hooks for the external graph_test package.
var (
	OracleKShortestPaths = oracleKShortestPaths
	DiffPaths            = diffPaths
)
