// fixture: util bottom layer, no dependencies
#ifndef CROSSMODAL_UTIL_BASE_H_
#define CROSSMODAL_UTIL_BASE_H_
#endif  // CROSSMODAL_UTIL_BASE_H_
