// Seeds from the environment instead of config.
#include <ctime>
#include <random>
unsigned BadSeed() { return static_cast<unsigned>(time(nullptr)); }
unsigned WorseSeed() { std::random_device rd; return rd(); }
int Timestamp(int t) { return t; }  // 'time' substrings are fine
