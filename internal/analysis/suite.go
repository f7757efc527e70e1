package analysis

// Suite is the dtmlint analyzer suite in reporting order.
var Suite = []*Analyzer{
	Detclock,
	Detrange,
	Gosites,
}
