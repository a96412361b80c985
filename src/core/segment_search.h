#ifndef GKS_CORE_SEGMENT_SEARCH_H_
#define GKS_CORE_SEGMENT_SEARCH_H_

#include "core/searcher.h"

namespace gks {

/// GksSearcher searches segment sets (core/searcher.h); this name is kept
/// only because the benchmark in perfbench/ still spells it.
using SegmentSearcher = GksSearcher;

}  // namespace gks

#endif  // GKS_CORE_SEGMENT_SEARCH_H_
