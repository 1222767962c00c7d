package dynamic

// RowSlack exports the arena slack to the external test package.
const RowSlack = rowSlack
