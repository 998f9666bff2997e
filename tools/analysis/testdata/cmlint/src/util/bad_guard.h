// Wrong guard name.
#ifndef CROSSMODAL_WRONG_H_
#define CROSSMODAL_WRONG_H_
#endif  // CROSSMODAL_WRONG_H_
