// fixture: features builds on util (downward, fine)
#ifndef CROSSMODAL_FEATURES_F_H_
#define CROSSMODAL_FEATURES_F_H_
#include "util/base.h"
#endif  // CROSSMODAL_FEATURES_F_H_
