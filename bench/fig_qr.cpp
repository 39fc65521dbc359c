// bench/fig_qr.cpp
//
// Reproduces Figures 10, 11, 12 of the paper: relative error of First
// Order, Dodin and Normal on tiled QR DAGs, k in {4,6,8,10,12}, pfail in
// {1e-2, 1e-3, 1e-4}.

#include "fig_sweep.hpp"

int main(int argc, char** argv) {
  return expmk::bench::run_fig_sweep(argc, argv, "qr", /*first_figure=*/10);
}
