// Library code calling banned facilities.
#include <iostream>
int Roll() { return rand() % 6; }
void Print(int v) { std::cout << v; }
int* Alloc() { return new int(7); }
void Free(int* p) { delete p; }
