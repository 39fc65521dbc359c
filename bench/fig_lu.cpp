// bench/fig_lu.cpp
//
// Reproduces Figures 7, 8, 9 of the paper: relative error of First Order,
// Dodin and Normal on tiled LU DAGs, k in {4,6,8,10,12}, pfail in
// {1e-2, 1e-3, 1e-4}.

#include "fig_sweep.hpp"

int main(int argc, char** argv) {
  return expmk::bench::run_fig_sweep(argc, argv, "lu", /*first_figure=*/7);
}
