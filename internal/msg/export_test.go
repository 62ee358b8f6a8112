package msg

// MaxDepth is maxDepth for the external tests.
const MaxDepth = maxDepth
