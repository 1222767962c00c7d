package dynamic

// RowSlack exports the arena slack to the external test package.
const RowSlack = rowSlack

// MemberCount exports slot v's kept member-neighbor count to the
// external test package.
func (e *Engine) MemberCount(v int) int32 { return e.memberNbrs[v] }
