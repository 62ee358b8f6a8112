package msg

// MaxDepth is maxDepth for the external tests.
const MaxDepth = maxDepth

// DecodeByTag decodes data with the Codec of the type bound to tag.
func DecodeByTag(tag byte, data []byte) (any, error) {
	return bindings.Load().byTag[tag].codec.decodeAny(data)
}

// IsBound reports whether a type is bound to tag.
func IsBound(tag byte) bool { return bindings.Load().byTag[tag] != nil }
