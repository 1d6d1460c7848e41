package cfg

// Hooks for the external tests of this package, which build their shard
// grammars with sequitur: an import the package's own tests cannot make.
var (
	RandomShards    = randomShards
	CheckRecompress = checkRecompress
)
